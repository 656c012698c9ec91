// Death-test helper for code that starts std::threads: what happens
// when the second thread cannot get a stack.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <system_error>

namespace lrgp::test {

/// Expects `start()`, run in a death-test child, to throw the
/// std::system_error of a thread that failed to start.  glibc gives each
/// std::thread a stack of the soft RLIMIT_STACK; the child caps its
/// address space 1.5 stacks above its current size, so the first thread
/// `start` starts gets a stack and the second fails with EAGAIN.  The
/// child exits 0 only on std::system_error; a joinable std::thread
/// destroyed during the unwind aborts it instead.  The child is a fresh
/// process, because stacks that glibc cached from an earlier test's
/// threads would let both threads start under the cap.  Call it last in
/// a test: it skips under sanitizers, whose runtimes reserve address
/// space beyond any cap, and when RLIMIT_STACK is unlimited.
template <class Start>
void expect_second_thread_start_throws(Start start) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    static_cast<void>(start);
    GTEST_SKIP() << "sanitizer runtimes reserve address space beyond any RLIMIT_AS cap";
#else
    rlimit stack{};
    ASSERT_EQ(getrlimit(RLIMIT_STACK, &stack), 0);
    if (stack.rlim_cur == RLIM_INFINITY) GTEST_SKIP() << "RLIMIT_STACK is unlimited";
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            std::ifstream statm("/proc/self/statm");
            unsigned long long pages = 0;
            statm >> pages;
            rlimit as{};
            getrlimit(RLIMIT_AS, &as);
            as.rlim_cur = static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                          stack.rlim_cur / 2 * 3;
            if (pages == 0 || setrlimit(RLIMIT_AS, &as) != 0) std::_Exit(2);
            try {
                start();
            } catch (const std::system_error&) {
                std::_Exit(0);
            }
            std::_Exit(1);
        },
        testing::ExitedWithCode(0), "");
#endif
}

}  // namespace lrgp::test
