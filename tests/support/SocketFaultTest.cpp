//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Socket primitive tests under injected faults, over socketpair(2):
/// sendAll must survive short writes and spurious EINTR/EAGAIN without
/// corrupting or reordering bytes; LineReader must reassemble frames
/// across short reads and retried syscalls; hard errors must surface
/// as errors, not hangs. The poll-gated readLine timeout is covered
/// without fault hooks.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/Socket.h"

#include "gtest/gtest.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

using namespace padx::support;

namespace {

/// A connected AF_UNIX socket pair; both ends RAII-closed.
struct SocketPair {
  FileDescriptor A, B;
  SocketPair() {
    int Fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) == 0) {
      A = FileDescriptor(Fds[0]);
      B = FileDescriptor(Fds[1]);
    }
  }
};

} // namespace

TEST(SocketFault, ReadLineTimesOutThenRecovers) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line, Err;

  // Nothing written yet: a bounded read must report Timeout, not hang.
  EXPECT_EQ(Reader.readLine(Line, &Err, 50), LineReader::Status::Timeout);

  // A partial frame arrives; still no newline, still Timeout — and the
  // partial data must stay buffered.
  ASSERT_TRUE(sendAll(P.A.get(), "hel", &Err)) << Err;
  EXPECT_EQ(Reader.readLine(Line, &Err, 50), LineReader::Status::Timeout);

  // The rest of the frame completes the line.
  ASSERT_TRUE(sendAll(P.A.get(), "lo\n", &Err)) << Err;
  EXPECT_EQ(Reader.readLine(Line, &Err, 1000), LineReader::Status::Line);
  EXPECT_EQ(Line, "hello");
}

TEST(SocketFault, ReadLineZeroTimeoutPollsWithoutBlocking) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line, Err;
  EXPECT_EQ(Reader.readLine(Line, &Err, 0), LineReader::Status::Timeout);
  ASSERT_TRUE(sendAll(P.A.get(), "x\n", &Err)) << Err;
  EXPECT_EQ(Reader.readLine(Line, &Err, 0), LineReader::Status::Line);
  EXPECT_EQ(Line, "x");
}

TEST(SocketFault, ShutdownReadUnblocksReaderButKeepsWrites) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  LineReader Reader(P.B.get(), 1u << 20);
  std::string Err;

  std::thread Unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    P.B.shutdownRead();
  });
  std::string Line;
  // The blocked reader sees EOF once the read side shuts down...
  EXPECT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Eof);
  Unblocker.join();
  // ...and the write side still works: this is what lets a drain
  // force-close stragglers while flushing their queued responses.
  ASSERT_TRUE(sendAll(P.B.get(), "reply\n", &Err)) << Err;
  LineReader PeerReader(P.A.get(), 1u << 20);
  EXPECT_EQ(PeerReader.readLine(Line, &Err), LineReader::Status::Line);
  EXPECT_EQ(Line, "reply");
}

TEST(SocketFault, SendAllSurvivesShortWritesBitExactly) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());

  // Force every send to be truncated to a deterministic 1..len bytes;
  // sendAll must keep going and the byte stream must come out intact.
  std::string Payload;
  for (int I = 0; I != 2000; ++I)
    Payload += static_cast<char>('a' + I % 26);
  Payload += '\n';

  std::string Err;
  {
    fault::Config C;
    ASSERT_TRUE(C.parseSpec("send_short=1.0"));
    fault::ScopedFaultConfig Scope(C);
    ASSERT_TRUE(sendAll(P.A.get(), Payload, &Err)) << Err;
    EXPECT_GT(fault::fired(fault::Site::SendShort), 1u)
        << "the payload must have been split across many short sends";
  }

  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line;
  ASSERT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Line);
  EXPECT_EQ(Line + "\n", Payload);
}

TEST(SocketFault, SendAllRetriesEintr) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("send_eintr=#5"));
  fault::ScopedFaultConfig Scope(C);
  std::string Err;
  ASSERT_TRUE(sendAll(P.A.get(), "ping\n", &Err)) << Err;
  EXPECT_EQ(fault::fired(fault::Site::SendEintr), 5u);

  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line;
  EXPECT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Line);
  EXPECT_EQ(Line, "ping");
}

TEST(SocketFault, SendAllReportsHardErrors) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("send_error=#1"));
  fault::ScopedFaultConfig Scope(C);
  std::string Err;
  EXPECT_FALSE(sendAll(P.A.get(), "doomed\n", &Err));
  EXPECT_NE(Err.find("send"), std::string::npos);
}

TEST(SocketFault, LineReaderReassemblesAcrossShortReads) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  // Longer than any single (short or full) 4 KiB read can deliver, so
  // reassembly across several reads is guaranteed to be exercised.
  std::string First(10000, 'a');
  std::string Err;
  ASSERT_TRUE(sendAll(P.A.get(), First + "\nsecond line\n", &Err));

  fault::Config C;
  ASSERT_TRUE(C.parseSpec("recv_short=1.0"));
  fault::ScopedFaultConfig Scope(C);
  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line;
  ASSERT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Line);
  EXPECT_EQ(Line, First);
  ASSERT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Line);
  EXPECT_EQ(Line, "second line");
  EXPECT_GT(fault::occurrences(fault::Site::RecvShort), 2u);
}

TEST(SocketFault, LineReaderRetriesEintrAndEagain) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  std::string Err;
  ASSERT_TRUE(sendAll(P.A.get(), "resilient\n", &Err));

  fault::Config C;
  ASSERT_TRUE(C.parseSpec("recv_eintr=#3,recv_eagain=#2"));
  fault::ScopedFaultConfig Scope(C);
  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line;
  ASSERT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Line);
  EXPECT_EQ(Line, "resilient");
  EXPECT_EQ(fault::fired(fault::Site::RecvEintr), 3u);
  EXPECT_EQ(fault::fired(fault::Site::RecvEagain), 2u);
}

TEST(SocketFault, LineReaderReportsHardReadErrors) {
  SocketPair P;
  ASSERT_TRUE(P.A.valid());
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("recv_error=#1"));
  fault::ScopedFaultConfig Scope(C);
  LineReader Reader(P.B.get(), 1u << 20);
  std::string Line, Err;
  EXPECT_EQ(Reader.readLine(Line, &Err), LineReader::Status::Error);
  EXPECT_NE(Err.find("read"), std::string::npos);
}

TEST(SocketFault, ConnectFailureIsInjectable) {
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("connect_error=#1"));
  fault::ScopedFaultConfig Scope(C);
  std::string Err;
  FileDescriptor Fd = connectUnix("/tmp/padx_nonexistent.sock", &Err);
  EXPECT_FALSE(Fd.valid());
  EXPECT_NE(Err.find("[injected]"), std::string::npos);
}
