// Tests for the binary-protocol serving layer (src/net): frame codec
// round-trips, torn/garbage/oversized-frame handling in the incremental
// decoder, socket-level pipelining, abrupt-disconnect robustness (no fd
// leaks, no cross-connection corruption), and the RemoteStore end to end.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "tests/test_util.h"

namespace apmbench::net {
namespace {

ycsb::Record MakeRecord(int fields) {
  ycsb::Record record;
  for (int i = 0; i < fields; i++) {
    record.emplace_back("field" + std::to_string(i),
                        "value-" + std::to_string(i * 31));
  }
  return record;
}

// ---------------------------------------------------------------------
// Frame codec round-trips.

TEST(ProtocolTest, RequestRoundTripAllOpcodes) {
  const Opcode ops[] = {Opcode::kPing,   Opcode::kRead,   Opcode::kScan,
                        Opcode::kInsert, Opcode::kUpdate, Opcode::kDelete,
                        Opcode::kDiskUsage};
  uint64_t id = 100;
  for (Opcode op : ops) {
    Request request;
    request.op = op;
    if (op != Opcode::kPing && op != Opcode::kDiskUsage) {
      request.table = "usertable";
      request.key = "user42";
    }
    if (op == Opcode::kScan) request.count = 77;
    if (op == Opcode::kInsert || op == Opcode::kUpdate) {
      request.record = MakeRecord(5);
    }
    std::string wire;
    EncodeRequest(request, id, &wire);

    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame)
        << OpcodeName(op);
    EXPECT_EQ(frame.op, op);
    EXPECT_EQ(frame.request_id, id);
    Request decoded;
    ASSERT_TRUE(DecodeRequest(frame, &decoded)) << OpcodeName(op);
    EXPECT_EQ(decoded.table, request.table);
    EXPECT_EQ(decoded.key, request.key);
    EXPECT_EQ(decoded.count, request.count);
    EXPECT_EQ(decoded.record, request.record);
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
    id++;
  }
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response;
  response.status = Status::OK();
  response.record = MakeRecord(10);
  std::string wire;
  EncodeResponse(Opcode::kRead, 9, response, &wire);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  Response decoded;
  ASSERT_TRUE(DecodeResponse(frame, &decoded));
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.record, response.record);

  // Scan response with keys.
  response = Response();
  for (int i = 0; i < 3; i++) {
    response.records.push_back(
        ycsb::KeyedRecord{"key" + std::to_string(i), MakeRecord(2)});
  }
  wire.clear();
  EncodeResponse(Opcode::kScan, 10, response, &wire);
  decoder.Feed(wire.data(), wire.size());
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(frame, &decoded));
  ASSERT_EQ(decoded.records.size(), 3u);
  EXPECT_EQ(decoded.records[1].key, "key1");
  EXPECT_EQ(decoded.records[2].record, response.records[2].record);

  // An error status crosses the wire with its message, and carries no
  // body.
  response = Response();
  response.status = Status::NotFound("user99 missing");
  wire.clear();
  EncodeResponse(Opcode::kRead, 11, response, &wire);
  decoder.Feed(wire.data(), wire.size());
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(frame, &decoded));
  EXPECT_TRUE(decoded.status.IsNotFound());
  EXPECT_EQ(decoded.status.message(), "user99 missing");
}

// ---------------------------------------------------------------------
// Torn frames, garbage, oversized lengths.

TEST(FrameDecoderTest, TornFrameByteByByte) {
  Request request;
  request.op = Opcode::kInsert;
  request.table = "t";
  request.key = "k";
  request.record = MakeRecord(8);
  std::string wire;
  EncodeRequest(request, 3, &wire);
  // Two frames, delivered one byte at a time: the decoder must produce
  // exactly two frames, each only once the last byte lands.
  EncodeRequest(request, 4, &wire);

  FrameDecoder decoder;
  Frame frame;
  int frames = 0;
  for (size_t i = 0; i < wire.size(); i++) {
    decoder.Feed(wire.data() + i, 1);
    for (;;) {
      FrameDecoder::Result r = decoder.Next(&frame);
      if (r != FrameDecoder::Result::kFrame) {
        ASSERT_EQ(r, FrameDecoder::Result::kNeedMore);
        break;
      }
      frames++;
      EXPECT_EQ(frame.request_id, static_cast<uint64_t>(2 + frames));
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, GarbageBytesLatchError) {
  std::string garbage = "GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";
  FrameDecoder decoder;
  decoder.Feed(garbage.data(), garbage.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_FALSE(decoder.error().empty());
  // The error latches: even valid bytes fed later stay rejected.
  std::string wire;
  Request ping;
  ping.op = Opcode::kPing;
  EncodeRequest(ping, 1, &wire);
  decoder.Feed(wire.data(), wire.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
}

TEST(FrameDecoderTest, BadVersionFlagsAndCrc) {
  Request ping;
  ping.op = Opcode::kPing;
  std::string wire;
  EncodeRequest(ping, 1, &wire);

  {
    std::string bad = wire;
    bad[1] = static_cast<char>(kProtocolVersion + 1);
    FrameDecoder decoder;
    decoder.Feed(bad.data(), bad.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  }
  {
    std::string bad = wire;
    bad[3] = 0x40;  // reserved flags must be zero
    FrameDecoder decoder;
    decoder.Feed(bad.data(), bad.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  }
  {
    // Corrupt the payload of a non-empty frame: CRC must catch it.
    Request insert;
    insert.op = Opcode::kInsert;
    insert.table = "t";
    insert.key = "k";
    insert.record = MakeRecord(2);
    std::string bad;
    EncodeRequest(insert, 2, &bad);
    bad[kFrameHeaderBytes + 2] ^= 0x5a;
    FrameDecoder decoder;
    decoder.Feed(bad.data(), bad.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
    EXPECT_NE(decoder.error().find("CRC"), std::string::npos);
  }
}

TEST(FrameDecoderTest, OversizedLengthRejectedBeforeBuffering) {
  // A header advertising a 4 GB payload must fail immediately from the
  // 16 header bytes alone — not wait for (or allocate) the payload.
  std::string header;
  header.push_back(static_cast<char>(kFrameMagic));
  header.push_back(static_cast<char>(kProtocolVersion));
  header.push_back(static_cast<char>(Opcode::kPing));
  header.push_back(0);
  header.append(8, '\0');                  // request id
  header.append("\xff\xff\xff\xff", 4);    // payload_len = 0xffffffff
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_NE(decoder.error().find("oversized"), std::string::npos);
  EXPECT_LE(decoder.buffered_bytes(), header.size());
}

TEST(FrameDecoderTest, RandomCorruptionFuzz) {
  // Flip random bytes in a valid multi-frame stream; the decoder must
  // either produce frames or latch an error — never crash or hand back a
  // torn payload as valid.
  std::mt19937 rng(20260808);
  Request insert;
  insert.op = Opcode::kInsert;
  insert.table = "usertable";
  insert.key = "user1";
  insert.record = MakeRecord(6);
  std::string clean;
  for (uint64_t id = 1; id <= 8; id++) EncodeRequest(insert, id, &clean);

  for (int iter = 0; iter < 500; iter++) {
    std::string stream = clean;
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; i++) {
      stream[rng() % stream.size()] ^=
          static_cast<char>(1 + rng() % 255);
    }
    FrameDecoder decoder;
    size_t fed = 0;
    int frames = 0;
    while (fed < stream.size()) {
      size_t chunk = 1 + rng() % 37;
      if (chunk > stream.size() - fed) chunk = stream.size() - fed;
      decoder.Feed(stream.data() + fed, chunk);
      fed += chunk;
      Frame frame;
      for (;;) {
        FrameDecoder::Result r = decoder.Next(&frame);
        if (r == FrameDecoder::Result::kError) {
          fed = stream.size();  // connection would be dropped
          break;
        }
        if (r == FrameDecoder::Result::kNeedMore) break;
        frames++;
        // Any frame that survives the CRC decodes as a valid request.
        Request decoded;
        EXPECT_TRUE(DecodeRequest(frame, &decoded));
      }
    }
    EXPECT_LE(frames, 8);
  }
}

TEST(ProtocolTest, HostileCountsRejectedWithoutHugeAllocation) {
  // A response frame whose scan count claims 2^28 records but carries no
  // bytes must fail cleanly (reserve-before-validate would OOM).
  std::string payload;
  payload.push_back(0);                        // status ok
  payload.push_back(0);                        // empty message
  payload.append("\xff\xff\xff\x7f", 4);       // varint32 ~2^28
  std::string wire;
  AppendFrame(Opcode::kScan, 1, Slice(payload), &wire);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  Response response;
  EXPECT_FALSE(DecodeResponse(frame, &response));

  // Same for a record field count.
  std::string encoded;
  encoded.append("\xff\xff\xff\x7f", 4);
  ycsb::Record record;
  EXPECT_FALSE(ycsb::DecodeRecord(Slice(encoded), &record));
}

// ---------------------------------------------------------------------
// Socket-level server tests.

/// A BasicDB whose next Insert can be held until a condition holds, so a
/// test can make requests queue up behind one in-flight request.
class GatedDB : public testutil::BasicDB {
 public:
  /// The next Insert waits until `open()` returns true, or at most 10 s.
  void HoldNextInsertUntil(std::function<bool()> open) {
    std::lock_guard<std::mutex> lock(mu_);
    gate_ = std::move(open);
  }

  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    std::function<bool()> gate;
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate.swap(gate_);
    }
    if (gate) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!gate() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return BasicDB::Insert(table, key, record);
  }

 private:
  std::mutex mu_;
  std::function<bool()> gate_;
};

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions()) {
    server_ = std::make_unique<Server>(options, &db_);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Opens a raw blocking client socket to the server.
  int Dial() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << strerror(errno);
    return fd;
  }

  static void WriteAll(int fd, const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads complete frames until `count` arrive (or the peer closes).
  static std::vector<Frame> ReadFrames(int fd, int count) {
    std::vector<Frame> frames;
    FrameDecoder decoder;
    char buf[16 * 1024];
    while (static_cast<int>(frames.size()) < count) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      decoder.Feed(buf, static_cast<size_t>(n));
      Frame frame;
      while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
        frames.push_back(frame);
      }
    }
    return frames;
  }

  static int CountOpenFds() {
    int count = 0;
    DIR* dir = opendir("/proc/self/fd");
    if (dir == nullptr) return -1;
    while (readdir(dir) != nullptr) count++;
    closedir(dir);
    return count - 1;  // exclude the opendir fd itself (".", ".." cancel
                       // against stdin/stdout roughly; the absolute value
                       // is irrelevant — tests compare before/after)
  }

  /// Polls until the server reports `n` open connections (teardown is
  /// asynchronous with the client's close()).
  bool WaitForOpenConnections(uint64_t n, int timeout_ms = 5000) {
    for (int i = 0; i < timeout_ms; i++) {
      if (server_->GetStats().open_connections == n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  GatedDB db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  int fd = Dial();

  // K requests in a single write; K responses must come back in order,
  // carrying the matching request ids.
  constexpr int kRequests = 32;
  std::string wire;
  for (int i = 0; i < kRequests; i++) {
    Request request;
    if (i % 2 == 0) {
      request.op = Opcode::kInsert;
      request.table = "t";
      request.key = "pipeline" + std::to_string(i);
      request.record = MakeRecord(3);
    } else {
      request.op = Opcode::kRead;
      request.table = "t";
      request.key = "pipeline" + std::to_string(i - 1);
    }
    EncodeRequest(request, 1000 + i, &wire);
  }
  WriteAll(fd, wire);

  std::vector<Frame> frames = ReadFrames(fd, kRequests);
  ASSERT_EQ(frames.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; i++) {
    EXPECT_EQ(frames[i].request_id, static_cast<uint64_t>(1000 + i));
    Response response;
    ASSERT_TRUE(DecodeResponse(frames[i], &response));
    EXPECT_TRUE(response.status.ok()) << i;
    if (i % 2 == 1) {
      EXPECT_EQ(response.record, MakeRecord(3));
    }
  }
  // The odd reads arrived while their even insert was possibly still in
  // a worker batch; in-order execution makes them hits, proving requests
  // on one connection never reorder.
  close(fd);
  EXPECT_TRUE(WaitForOpenConnections(0));
  Server::Stats stats = server_->GetStats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.responses, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST_F(ServerTest, BadFrameDropsOnlyThatConnection) {
  StartServer();
  int good = Dial();
  int bad = Dial();

  const std::string garbage(64, '\xde');
  WriteAll(bad, garbage);
  // The server drops the offender...
  EXPECT_TRUE(WaitForOpenConnections(1));
  char tmp;
  EXPECT_EQ(recv(bad, &tmp, 1, 0), 0);  // we observe the close
  close(bad);

  // ...while the good connection still works.
  Request ping;
  ping.op = Opcode::kPing;
  std::string wire;
  EncodeRequest(ping, 7, &wire);
  WriteAll(good, wire);
  std::vector<Frame> frames = ReadFrames(good, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 7u);
  close(good);
  EXPECT_TRUE(WaitForOpenConnections(0));
  EXPECT_EQ(server_->GetStats().bad_frames, 1u);
}

TEST_F(ServerTest, AbruptDisconnectsLeakNoFdsAndCorruptNoOne) {
  StartServer();
  const int baseline_fds = CountOpenFds();

  // A long-lived well-behaved connection that must stay coherent while
  // other clients die rudely around it.
  int good = Dial();
  Request insert;
  insert.op = Opcode::kInsert;
  insert.table = "t";
  insert.key = "survivor";
  insert.record = MakeRecord(4);
  {
    std::string wire;
    EncodeRequest(insert, 1, &wire);
    std::vector<Frame> frames;
    WriteAll(good, wire);
    frames = ReadFrames(good, 1);
    ASSERT_EQ(frames.size(), 1u);
  }

  for (int round = 0; round < 20; round++) {
    // Rude client A: half a frame, then close.
    int a = Dial();
    Request request;
    request.op = Opcode::kInsert;
    request.table = "t";
    request.key = "rude" + std::to_string(round);
    request.record = MakeRecord(50);
    std::string wire;
    EncodeRequest(request, 100 + round, &wire);
    WriteAll(a, wire.substr(0, wire.size() / 2));
    close(a);

    // Rude client B: a full pipelined burst, closed before reading any
    // response — the server's writes hit a dead socket mid-response.
    int b = Dial();
    wire.clear();
    for (int i = 0; i < 64; i++) {
      Request read;
      read.op = Opcode::kRead;
      read.table = "t";
      read.key = "survivor";
      EncodeRequest(read, 200 + i, &wire);
    }
    WriteAll(b, wire);
    close(b);
  }

  // Every rude connection is reaped; only `good` remains.
  ASSERT_TRUE(WaitForOpenConnections(1));

  // The survivor still gets exact, uncorrupted responses.
  for (int i = 0; i < 10; i++) {
    Request read;
    read.op = Opcode::kRead;
    read.table = "t";
    read.key = "survivor";
    std::string wire;
    EncodeRequest(read, 1000 + i, &wire);
    WriteAll(good, wire);
    std::vector<Frame> frames = ReadFrames(good, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].request_id, static_cast<uint64_t>(1000 + i));
    Response response;
    ASSERT_TRUE(DecodeResponse(frames[0], &response));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.record, MakeRecord(4));
  }
  close(good);
  ASSERT_TRUE(WaitForOpenConnections(0));

  // fd accounting: all 41 dead sockets are closed server-side, so the
  // process is back to its pre-test descriptor count.
  int after_fds = -1;
  for (int i = 0; i < 5000 && after_fds != baseline_fds; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after_fds = CountOpenFds();
  }
  EXPECT_EQ(after_fds, baseline_fds);
  // A rude client's RST can evict it from the accept queue before the
  // server ever sees it, so the exact accepted count is racy; the leak
  // invariant is that everything accepted was also closed.
  Server::Stats stats = server_->GetStats();
  EXPECT_EQ(stats.closed, stats.accepted);
  EXPECT_GE(stats.accepted, 2u);
  EXPECT_LE(stats.accepted, 42u);
}

TEST_F(ServerTest, StopWithLiveConnectionsReleasesEverything) {
  StartServer();
  std::vector<int> fds;
  for (int i = 0; i < 8; i++) fds.push_back(Dial());
  ASSERT_TRUE(WaitForOpenConnections(8));
  server_->Stop();
  EXPECT_EQ(server_->GetStats().open_connections, 0u);
  for (int fd : fds) {
    char tmp;
    EXPECT_EQ(recv(fd, &tmp, 1, 0), 0);  // server closed its side
    close(fd);
  }
  server_->Stop();  // idempotent
}

// ---------------------------------------------------------------------
// Client / RemoteStore end to end.

TEST_F(ServerTest, RemoteStoreEndToEnd) {
  StartServer();
  ClientOptions options;
  options.port = server_->port();
  options.connections = 4;
  std::unique_ptr<RemoteStore> store;
  ASSERT_TRUE(RemoteStore::Open(options, &store).ok());

  ycsb::Record record = MakeRecord(10);
  ASSERT_TRUE(store->Insert("t", Slice("user5"), record).ok());
  ycsb::Record got;
  ASSERT_TRUE(store->Read("t", Slice("user5"), &got).ok());
  EXPECT_EQ(got, record);

  // Remote statuses survive the wire.
  EXPECT_TRUE(store->Read("t", Slice("nope"), &got).IsNotFound());
  EXPECT_TRUE(store->Delete("t", Slice("nope")).IsNotFound());

  ycsb::Record updated = MakeRecord(2);
  ASSERT_TRUE(store->Update("t", Slice("user5"), updated).ok());
  ASSERT_TRUE(store->Read("t", Slice("user5"), &got).ok());
  EXPECT_EQ(got, updated);

  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(store
                    ->Insert("t", Slice("scan" + std::to_string(100 + i)),
                             MakeRecord(1))
                    .ok());
  }
  std::vector<ycsb::KeyedRecord> rows;
  ASSERT_TRUE(store->ScanKeyed("t", Slice("scan"), 10, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].key, "scan100");
  EXPECT_EQ(rows[9].key, "scan109");

  uint64_t bytes = 123;
  EXPECT_TRUE(store->DiskUsage(&bytes).ok());
  EXPECT_EQ(bytes, 0u);  // BasicDB has no disk footprint

  ASSERT_TRUE(store->Delete("t", Slice("user5")).ok());
  EXPECT_TRUE(store->Read("t", Slice("user5"), &got).IsNotFound());
}

TEST_F(ServerTest, ManyConnectionsConcurrentTraffic) {
  ServerOptions server_options;
  server_options.event_threads = 2;
  server_options.worker_threads = 4;
  StartServer(server_options);

  ClientOptions options;
  options.port = server_->port();
  options.connections = 64;
  std::unique_ptr<RemoteStore> store;
  ASSERT_TRUE(RemoteStore::Open(options, &store).ok());

  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string key =
            std::string("k").append(std::to_string(t)).append("-").append(
                std::to_string(i));
        ycsb::Record record{{"f", key}};
        if (!store->Insert("t", Slice(key), record).ok()) failures++;
        ycsb::Record got;
        if (!store->Read("t", Slice(key), &got).ok() || got != record) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db_.size(), static_cast<size_t>(kThreads * kOpsPerThread));
  Server::Stats stats = server_->GetStats();
  EXPECT_EQ(stats.bad_frames, 0u);
  EXPECT_GE(stats.requests, static_cast<uint64_t>(kThreads * kOpsPerThread *
                                                  2));
}

TEST_F(ServerTest, ClientPipeliningBatchesOnTheServer) {
  StartServer();
  ClientOptions options;
  options.port = server_->port();
  options.connections = 1;
  options.max_pipeline = 256;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());

  // Fire a burst of async calls over one socket, then collect: the
  // responses resolve in the presence of pipelining, and the server's
  // batch counter shows multi-request drains. The first insert is held
  // until the server has decoded all 200 requests, so the worker's next
  // drain finds the rest queued on the connection.
  Server* server = server_.get();
  db_.HoldNextInsertUntil(
      [server] { return server->GetStats().requests >= 200; });
  std::vector<std::shared_ptr<Client::Pending>> handles;
  for (int i = 0; i < 200; i++) {
    Request request;
    request.op = Opcode::kInsert;
    request.table = "t";
    request.key = "burst" + std::to_string(i);
    request.record = MakeRecord(2);
    handles.push_back(client.AsyncCall(request));
  }
  for (auto& handle : handles) {
    ASSERT_TRUE(handle->Wait().ok());
    EXPECT_TRUE(handle->response().status.ok());
  }
  EXPECT_EQ(db_.size(), 200u);
  Server::Stats stats = server_->GetStats();
  EXPECT_EQ(stats.requests, 200u);
  // At least some drains served more than one request (strictly fewer
  // batches than requests proves server-side batching engaged).
  EXPECT_LT(stats.batches, stats.requests);
  client.Close();
}

TEST_F(ServerTest, ServerDeathFailsPendingCallsCleanly) {
  StartServer();
  ClientOptions options;
  options.port = server_->port();
  options.connections = 2;
  std::unique_ptr<RemoteStore> store;
  ASSERT_TRUE(RemoteStore::Open(options, &store).ok());
  ycsb::Record got;
  ASSERT_TRUE(store->Insert("t", Slice("x"), MakeRecord(1)).ok());
  server_->Stop();
  // Calls after the server is gone fail with a transport error, not a
  // hang or a crash.
  Status s = store->Read("t", Slice("x"), &got);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsNotFound());
}

}  // namespace
}  // namespace apmbench::net
