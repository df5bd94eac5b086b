/**
 * @file
 * The repro program end to end: the server studies regenerate their
 * checked-in results/ files byte for byte, and a job that two figures
 * share runs once, into files that do not depend on the worker count.
 */

#include <sched.h>
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

const std::string repro = MISAR_REPRO_PATH;

std::string
tmpDir()
{
    char tmpl[] = "/tmp/misar_repro_XXXXXX";
    const char *d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Run @p cmd with stdout+stderr captured into @p out; exit status. */
int
runCommand(const std::string &cmd, std::string &out)
{
    out.clear();
    FILE *p = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!p)
        return -1;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    const int status = ::pclose(p);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(Repro, RejectsBadArguments)
{
    const std::string dir = tmpDir();
    std::string out;
    EXPECT_EQ(runCommand(repro, out), 2) << out;
    EXPECT_EQ(runCommand(repro + " " + dir + " fig8_hwsync_opt nosuchfig", out),
              2)
        << out;
    EXPECT_EQ(runCommand(repro + " " + dir + " fig8_hwsync_opt fig8_hwsync_opt",
                         out),
              2)
        << out;
    std::filesystem::remove_all(dir);
}

TEST(Repro, ServerStudiesMatchCheckedInResults)
{
    const std::string dir = tmpDir();
    std::string out;
    ASSERT_EQ(runCommand(repro + " " + dir + " server_tail server_overload",
                         out),
              0)
        << out;
    for (const std::string fig : {"server_tail", "server_overload"})
        EXPECT_EQ(slurp(dir + "/" + fig + ".txt"),
                  slurp(std::string(MISAR_RESULTS_DIR) + "/" + fig + ".txt"))
            << fig;
    std::filesystem::remove_all(dir);
}

TEST(Repro, SharedJobRunsOnceAtAnyWidth)
{
    // Both ablations run 64-core radiosity on MSA/OMU-2.
    const std::string figs = " ablation_omu_counters ablation_noc_latency";
    const std::string wide = tmpDir();
    std::string out;
    ASSERT_EQ(runCommand(repro + " " + wide + figs, out), 0) << out;
    EXPECT_NE(out.find(" 36 jobs declared, 35 run,"), std::string::npos)
        << out;
    unsigned reports = 0;
    for (const auto &e : std::filesystem::directory_iterator(wide + "/jobs"))
        reports += e.path().extension() == ".json";
    EXPECT_EQ(reports, 35u);

    // Pinned to one CPU of this process's mask, repro runs serially.
    cpu_set_t set;
    ASSERT_EQ(::sched_getaffinity(0, sizeof(set), &set), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set))
        ++cpu;
    const std::string serial = tmpDir();
    ASSERT_EQ(runCommand("taskset -c " + std::to_string(cpu) + " " + repro +
                             " " + serial + figs,
                         out),
              0)
        << out;
    EXPECT_NE(out.find(" 1 workers,"), std::string::npos) << out;
    for (const std::string fig :
         {"ablation_omu_counters", "ablation_noc_latency"}) {
        const std::string text = slurp(wide + "/" + fig + ".txt");
        EXPECT_FALSE(text.empty()) << fig;
        EXPECT_EQ(text, slurp(serial + "/" + fig + ".txt")) << fig;
    }
    std::filesystem::remove_all(wide);
    std::filesystem::remove_all(serial);
}
