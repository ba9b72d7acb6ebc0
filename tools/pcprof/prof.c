/* pcprof: a SIGPROF program-counter sampler for boxes without perf/gdb.
 *
 *   cc -O2 -shared -fPIC -o pcprof.so prof.c
 *   PCPROF_OUT=run.pcprof LD_PRELOAD=./pcprof.so <program> <args>
 *
 * Every PCPROF_US microseconds of process CPU time (default 1000) the
 * handler records the interrupted pc and glibc's backtrace() into a
 * static buffer; at exit the file mappings, the stacks and the process
 * CPU time (so the interval the timer really kept) are written as text
 * for symbolise.py. ITIMER_PROF expires on the kernel's tick, so an
 * interval below the tick gives no more samples than the tick does.
 * Nothing in the profiled program changes, and the handler neither
 * allocates nor locks.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 64
#define MAX_WORDS (8u << 20) /* 64 MiB of address words, untouched until used */

static void *words[MAX_WORDS]; /* per stack: depth, then that many pcs, leaf first */
static volatile size_t used;
static size_t lost;
static long interval_us;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    void *frames[MAX_DEPTH];
    int n = backtrace(frames, MAX_DEPTH), from = 2; /* handler, trampoline */
#if defined(__x86_64__)
    void *pc = (void *)((ucontext_t *)uc_)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    void *pc = (void *)((ucontext_t *)uc_)->uc_mcontext.pc;
#else
    void *pc = 0;
#endif
    for (int i = 0; i < n; i++)
        if (frames[i] == pc) { from = i; break; }
    if (from >= n) return;
    size_t depth = (size_t)(n - from);
    size_t at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > MAX_WORDS) { lost++; return; }
    words[at] = (void *)depth;
    memcpy(&words[at + 1], &frames[from], depth * sizeof(void *));
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    const char *path = getenv("PCPROF_OUT");
    FILE *out = fopen(path ? path : "pcprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) /* "M start-end perms offset dev inode path" */
        if (strchr(line, '/')) fprintf(out, "M %s", line);
    size_t end = used < MAX_WORDS ? used : MAX_WORDS;
    for (size_t at = 0; at < end && at + 1 + (size_t)words[at] <= end; at += 1 + (size_t)words[at]) {
        fputc('S', out);
        for (size_t i = 1; i <= (size_t)words[at]; i++) fprintf(out, " %p", words[at + i]);
        fputc('\n', out);
    }
    if (lost) fprintf(out, "L %zu\n", lost);
    struct rusage ru; /* every thread's, the exited ones' included */
    if (getrusage(RUSAGE_SELF, &ru) == 0) /* "T cpu_seconds requested_us" */
        fprintf(out, "T %.6f %ld\n",
                ru.ru_utime.tv_sec + ru.ru_stime.tv_sec
                    + (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6,
                interval_us);
    fclose(out);
    fclose(maps);
}

__attribute__((constructor)) static void arm(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the first signal */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    const char *us_env = getenv("PCPROF_US");
    long us = interval_us = us_env ? atol(us_env) : 1000;
    struct itimerval every = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
    setitimer(ITIMER_PROF, &every, 0);
}
