/**
 * @file
 * Trace capture/replay tests: the binary format (serialization
 * round-trip, corruption detection, version/compat rules, unknown-
 * section skipping), the workload-source registry, and the
 * bit-identical capture -> replay guarantee across all four paper
 * suites (guest_retired, sim_cycles, host_records, every TOL
 * counter, every pipeline counter).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <mutex>

#include "guest/assembler.hh"
#include "profile/profile.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "trace/trace.hh"
#include "workloads/source.hh"

using namespace darco;
namespace g = darco::guest;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** A tiny two-segment program with a loop (decodable, runnable). */
g::Program
tinyProgram()
{
    g::Assembler as;
    as.mov(g::EAX, 0);
    as.mov(g::ECX, 500);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(g::EAX, g::ECX);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    g::Program::DataSegment seg;
    seg.addr = 0x20000000;
    seg.bytes = {1, 2, 3, 4, 5};
    prog.data.push_back(seg);
    return prog;
}

trace::TraceFile
sampleFile()
{
    trace::TraceFile file;
    file.meta.name = "sample";
    file.meta.suite = "SPEC INT";
    file.meta.seed = 42;
    file.meta.guestBudget = 123456;
    file.meta.imToBbThreshold = 5;
    file.meta.bbToSbThreshold = 777;
    file.meta.tags = {"unit", "round-trip"};
    file.program = tinyProgram();
    file.hasPins = true;
    file.pins.guestRetired = 11;
    file.pins.simCycles = 22;
    file.pins.hostRecords = 33;
    file.pins.timingCore = "event";
    file.pins.dynIm = 1;
    file.pins.dynBbm = 2;
    file.pins.dynSbm = 3;
    file.pins.bbsTranslated = 4;
    file.pins.sbsCreated = 5;
    file.pins.guestIndirectBranches = 6;
    return file;
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    FILE *fp = std::fopen(path.c_str(), "rb");
    EXPECT_NE(fp, nullptr);
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(fp);
    return bytes;
}

void
writeAll(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), fp),
              bytes.size());
    std::fclose(fp);
}

void
putU32(std::vector<uint8_t> &bytes, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes.push_back(uint8_t(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &bytes, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes.push_back(uint8_t(v >> (8 * i)));
}

TEST(TraceFormat, WriteReadRoundTrip)
{
    const std::string path = tempPath("roundtrip.dtrc");
    const trace::TraceFile file = sampleFile();
    trace::writeTrace(path, file);

    const trace::ReadResult result = trace::readTrace(path);
    ASSERT_TRUE(result.ok()) << result.error;
    const trace::TraceFile &back = result.file;
    EXPECT_EQ(back.meta.name, "sample");
    EXPECT_EQ(back.meta.suite, "SPEC INT");
    EXPECT_EQ(back.meta.seed, 42u);
    EXPECT_EQ(back.meta.guestBudget, 123456u);
    EXPECT_EQ(back.meta.imToBbThreshold, 5u);
    EXPECT_EQ(back.meta.bbToSbThreshold, 777u);
    EXPECT_EQ(back.meta.tags,
              (std::vector<std::string>{"unit", "round-trip"}));
    EXPECT_EQ(back.program.codeBase, file.program.codeBase);
    EXPECT_EQ(back.program.entry, file.program.entry);
    EXPECT_EQ(back.program.stackTop, file.program.stackTop);
    EXPECT_EQ(back.program.code, file.program.code);
    ASSERT_EQ(back.program.data.size(), 1u);
    EXPECT_EQ(back.program.data[0].addr, 0x20000000u);
    EXPECT_EQ(back.program.data[0].bytes, file.program.data[0].bytes);
    ASSERT_TRUE(back.hasPins);
    EXPECT_EQ(back.pins.guestRetired, 11u);
    EXPECT_EQ(back.pins.simCycles, 22u);
    EXPECT_EQ(back.pins.hostRecords, 33u);
    EXPECT_EQ(back.pins.timingCore, "event");
    EXPECT_EQ(back.pins.sbsCreated, 5u);
    EXPECT_EQ(back.pins.guestIndirectBranches, 6u);
}

TEST(TraceFormat, PinsAreOptional)
{
    const std::string path = tempPath("nopins.dtrc");
    trace::TraceFile file = sampleFile();
    file.hasPins = false;
    trace::writeTrace(path, file);
    const trace::ReadResult result = trace::readTrace(path);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_FALSE(result.file.hasPins);
}

TEST(TraceFormat, RejectsBadMagic)
{
    const std::string path = tempPath("badmagic.dtrc");
    trace::writeTrace(path, sampleFile());
    std::vector<uint8_t> bytes = readAll(path);
    bytes[0] ^= 0xFF;
    writeAll(path, bytes);
    const trace::ReadResult result = trace::readTrace(path);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("magic"), std::string::npos)
        << result.error;
}

TEST(TraceFormat, RejectsMajorVersionBump)
{
    const std::string path = tempPath("major.dtrc");
    trace::writeTrace(path, sampleFile());
    std::vector<uint8_t> bytes = readAll(path);
    bytes[4] += 1;  // header: magic u32, then major u16
    writeAll(path, bytes);
    const trace::ReadResult result = trace::readTrace(path);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("major"), std::string::npos)
        << result.error;
}

TEST(TraceFormat, DetectsCorruption)
{
    const std::string path = tempPath("corrupt.dtrc");
    trace::writeTrace(path, sampleFile());
    std::vector<uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x01;  // flip a payload bit
    writeAll(path, bytes);
    const trace::ReadResult result = trace::readTrace(path);
    // Either the checksum catches it or a section fails to parse;
    // silently succeeding would defeat the format's purpose.
    EXPECT_FALSE(result.ok());
}

TEST(TraceFormat, DetectsTruncation)
{
    const std::string path = tempPath("short.dtrc");
    trace::writeTrace(path, sampleFile());
    std::vector<uint8_t> bytes = readAll(path);
    bytes.resize(bytes.size() - 9);  // cut into the CSUM section
    writeAll(path, bytes);
    EXPECT_FALSE(trace::readTrace(path).ok());

    bytes.resize(20);  // cut into the first section
    writeAll(path, bytes);
    EXPECT_FALSE(trace::readTrace(path).ok());
}

TEST(TraceFormat, RequiresVerifiedChecksum)
{
    // The likeliest real-world damage is a truncated copy that drops
    // the trailing CSUM section; a reader must reject that, not fall
    // back to unchecked parsing.
    const std::string path = tempPath("nocsum.dtrc");
    trace::writeTrace(path, sampleFile());
    const std::vector<uint8_t> bytes = readAll(path);
    std::vector<uint8_t> stripped(bytes.begin(), bytes.end() - 20);
    writeAll(path, stripped);
    const trace::ReadResult result = trace::readTrace(path);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("CSUM"), std::string::npos)
        << result.error;

    // Retagging the checksum section (making it parse as an unknown
    // section) must not slip through the forward-compat skip either.
    std::vector<uint8_t> retagged = bytes;
    retagged[bytes.size() - 20] ^= 0xFF;
    writeAll(path, retagged);
    EXPECT_FALSE(trace::readTrace(path).ok());

    // Nor may unverified sections ride after a valid CSUM (the
    // checksum only covers what precedes it): a concatenated
    // fragment must be rejected, not parsed.
    std::vector<uint8_t> appended = bytes;
    putU32(appended, trace::kSectionPins);
    putU64(appended, 0);
    writeAll(path, appended);
    const trace::ReadResult result2 = trace::readTrace(path);
    EXPECT_FALSE(result2.ok());
    EXPECT_NE(result2.error.find("trailing"), std::string::npos)
        << result2.error;
}

TEST(TraceFormat, EverySingleByteFlipIsRejected)
{
    // Exhaustive corruption sweep: XOR-0xFF every byte position in a
    // real capture, one at a time, and require a clean structured
    // failure from every variant. The checksum section covers every
    // byte that precedes it, so a flip anywhere in header/META/PROG/
    // PINS mismatches the CSUM even when it still parses; flips
    // inside the CSUM section either break the stored hash, resize
    // the section into a truncation error, or retag it into a
    // missing-CSUM error. No position may crash or slip through.
    const std::string path = tempPath("flip_sweep.dtrc");
    trace::writeTrace(path, sampleFile());
    const std::vector<uint8_t> good = readAll(path);
    ASSERT_FALSE(good.empty());

    for (size_t i = 0; i < good.size(); ++i) {
        std::vector<uint8_t> bytes = good;
        bytes[i] ^= 0xFF;
        writeAll(path, bytes);
        const trace::ReadResult result = trace::readTrace(path);
        EXPECT_FALSE(result.ok())
            << "byte flip at offset " << i << " parsed successfully";
        EXPECT_FALSE(result.error.empty())
            << "byte flip at offset " << i << " failed without detail";
        EXPECT_EQ(result.failKind, trace::ReadFail::Corrupt)
            << "byte flip at offset " << i << ": " << result.error;
    }

    // Sanity: the unmodified bytes still parse (the sweep above
    // proved rejection, this proves it rejected *because* of the
    // flips).
    writeAll(path, good);
    EXPECT_TRUE(trace::readTrace(path).ok());
    std::remove(path.c_str());
}

TEST(TraceFormat, RandomTearsAreRejected)
{
    // A torn copy (interrupted scp, filled disk) can end at any
    // offset. Deterministic LCG sampling of tear points across the
    // file; every prefix must fail cleanly — the trailing CSUM
    // section is mandatory, so no prefix is a valid trace.
    const std::string path = tempPath("tear_sweep.dtrc");
    trace::writeTrace(path, sampleFile());
    const std::vector<uint8_t> good = readAll(path);
    ASSERT_GT(good.size(), 1u);

    uint64_t state = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 64; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const size_t cut = (state >> 16) % good.size();
        writeAll(path, {good.begin(), good.begin() +
                                          static_cast<long>(cut)});
        const trace::ReadResult result = trace::readTrace(path);
        EXPECT_FALSE(result.ok())
            << "tear to " << cut << " bytes parsed successfully";
        EXPECT_EQ(result.failKind, trace::ReadFail::Corrupt)
            << "tear to " << cut << ": " << result.error;
    }
    std::remove(path.c_str());
}

TEST(TraceFormat, MissingMandatorySectionsReported)
{
    // A file with only a header parses structurally but must be
    // rejected for lacking META/PROG.
    const std::string path = tempPath("empty.dtrc");
    std::vector<uint8_t> bytes;
    putU32(bytes, trace::kMagic);
    bytes.push_back(trace::kVersionMajor);
    bytes.push_back(0);
    bytes.push_back(trace::kVersionMinor);
    bytes.push_back(0);
    putU32(bytes, 0);  // header flags
    writeAll(path, bytes);
    const trace::ReadResult result = trace::readTrace(path);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("META"), std::string::npos)
        << result.error;
}

TEST(TraceFormat, SkipsUnknownSectionsAndTrailingFields)
{
    // Forward-compat: splice an unknown section plus trailing bytes
    // inside META (both things a newer minor version may add), fix
    // up the checksum, and expect a clean parse. Craft the file
    // manually so the test does not depend on writer internals
    // beyond the documented layout.
    const std::string path = tempPath("future.dtrc");
    trace::TraceFile file = sampleFile();
    file.hasPins = false;
    trace::writeTrace(path, file);
    std::vector<uint8_t> bytes = readAll(path);

    // Strip the trailing CSUM section (12-byte header + 8 payload).
    bytes.resize(bytes.size() - 20);

    // Append a trailing field a newer minor version added to META.
    // META is the first section: tag at offset 12, size (u64) at 16,
    // payload at 24.
    uint64_t meta_size = 0;
    std::memcpy(&meta_size, bytes.data() + 16, 8);
    const uint8_t extra_field[4] = {0xEE, 0xEE, 0xEE, 0xEE};
    bytes.insert(bytes.begin() + 24 + meta_size, extra_field,
                 extra_field + 4);
    meta_size += 4;
    std::memcpy(bytes.data() + 16, &meta_size, 8);

    // Append an unknown section a hypothetical 1.1 writer emitted.
    putU32(bytes, trace::fourcc('F', 'U', 'T', 'R'));
    putU64(bytes, 4);
    putU32(bytes, 0xDEADBEEF);

    // Re-append a correct checksum over everything so far.
    const uint64_t sum = trace::fnv1a64(bytes.data(), bytes.size());
    putU32(bytes, trace::kSectionChecksum);
    putU64(bytes, 8);
    putU64(bytes, sum);
    writeAll(path, bytes);

    const trace::ReadResult result = trace::readTrace(path);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.file.meta.name, "sample");
    EXPECT_EQ(result.file.program.code, file.program.code);
}

TEST(TraceFormat, RejectsRepeatedSections)
{
    // A known section appears at most once: a second META would
    // overwrite the name and extend the tags, a second PROG or PINS
    // would replace the first. Splice a copy of each section before
    // CSUM, reseal the checksum, and expect a Corrupt rejection that
    // names the repeated tag.
    const std::string path = tempPath("repeated.dtrc");
    trace::writeTrace(path, sampleFile());
    std::vector<uint8_t> sealed = readAll(path);
    // Strip the trailing CSUM section (12-byte header + 8 payload).
    sealed.resize(sealed.size() - 20);

    const struct
    {
        uint32_t tag;
        const char *name;
    } sections[] = {{trace::kSectionMeta, "META"},
                    {trace::kSectionProgram, "PROG"},
                    {trace::kSectionPins, "PINS"}};
    for (const auto &section : sections) {
        SCOPED_TRACE(section.name);
        // Walk the section headers (tag u32, size u64) after the
        // 12-byte file header to find this section's extent.
        size_t at = 12, size = 0;
        for (;;) {
            ASSERT_LT(at + 12, sealed.size());
            uint32_t tag = 0;
            uint64_t payload = 0;
            std::memcpy(&tag, sealed.data() + at, 4);
            std::memcpy(&payload, sealed.data() + at + 4, 8);
            size = 12 + static_cast<size_t>(payload);
            if (tag == section.tag)
                break;
            at += size;
        }
        std::vector<uint8_t> bytes = sealed;
        bytes.insert(bytes.end(), sealed.begin() + at,
                     sealed.begin() + at + size);
        const uint64_t sum = trace::fnv1a64(bytes.data(), bytes.size());
        putU32(bytes, trace::kSectionChecksum);
        putU64(bytes, 8);
        putU64(bytes, sum);
        writeAll(path, bytes);

        const trace::ReadResult result = trace::readTrace(path);
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(result.failKind, trace::ReadFail::Corrupt);
        EXPECT_NE(result.error.find(std::string("repeated ") +
                                    section.name),
                  std::string::npos)
            << result.error;
    }
    std::remove(path.c_str());
}

TEST(WorkloadSource, UriHelpersAndBareNames)
{
    EXPECT_TRUE(workloads::isSourceUri("source://trace/x.dtrc"));
    EXPECT_FALSE(workloads::isSourceUri("429.mcf"));
    EXPECT_EQ(workloads::syntheticUri("429.mcf"),
              "source://synthetic/429.mcf");
    EXPECT_EQ(workloads::traceUri("/tmp/x.dtrc"),
              "source://trace//tmp/x.dtrc");

    const workloads::Workload by_uri = workloads::resolveWorkload(
        workloads::syntheticUri("462.libquantum"));
    const workloads::Workload by_name =
        workloads::resolveWorkload("462.libquantum");
    EXPECT_EQ(by_uri.name, "462.libquantum");
    EXPECT_EQ(by_uri.suite, "SPEC INT");
    EXPECT_FALSE(by_uri.capturedMeta.has_value());
    EXPECT_EQ(by_uri.program.code, by_name.program.code);
}

TEST(WorkloadSource, SyntheticListingCoversAllBenchmarks)
{
    const std::vector<std::string> uris =
        workloads::listWorkloadUris();
    EXPECT_GE(uris.size(), workloads::allBenchmarks().size());
    unsigned synthetic = 0;
    for (const std::string &uri : uris)
        synthetic += workloads::isSourceUri(uri) &&
                     uri.find("synthetic") != std::string::npos;
    EXPECT_EQ(synthetic, workloads::allBenchmarks().size());
}

/** A registered scheme whose resolve() delegates to resolveWorkload,
 *  so its identity already holds the built program. */
class DelegatingSource : public workloads::WorkloadSource
{
  public:
    std::string scheme() const override { return "identify-delegate"; }

    workloads::Workload
    resolve(const std::string &spec) const override
    {
        return workloads::resolveWorkload(
            workloads::syntheticUri(spec));
    }
};

TEST(WorkloadSource, IdentifyMatchesResolveWithoutBuilding)
{
    static std::once_flag registered;
    std::call_once(registered, [] {
        workloads::registerSource(std::make_unique<DelegatingSource>());
    });
    const std::string path = tempPath("identify.dtrc");
    sim::MetricsOptions capture;
    capture.guestBudget = 20'000;
    capture.captureTracePath = path;
    sim::snapshotRun(workloads::resolveWorkload("429.mcf"), capture);

    // Each URI with whether its source leaves the program unbuilt.
    std::vector<std::pair<std::string, bool>> cases;
    for (const workloads::BenchParams &p : workloads::allBenchmarks())
        cases.emplace_back(workloads::syntheticUri(p.name), true);
    ASSERT_EQ(cases.size(), 48u);
    cases.emplace_back("462.libquantum", true);
    cases.emplace_back("source://identify-delegate/473.astar", false);
    cases.emplace_back(workloads::traceUri(path), false);

    for (const auto &[uri, unbuilt] : cases) {
        SCOPED_TRACE(uri);
        const workloads::Workload id = workloads::identifyWorkload(uri);
        const workloads::Workload res = workloads::resolveWorkload(uri);
        EXPECT_EQ(id.uri, res.uri);
        EXPECT_EQ(id.name, res.name);
        EXPECT_EQ(id.suite, res.suite);
        EXPECT_EQ(id.seed, res.seed);
        EXPECT_EQ(id.capturedMeta, res.capturedMeta);
        EXPECT_EQ(id.capturedPins, res.capturedPins);
        EXPECT_EQ(res.capturedMeta.has_value(),
                  uri == workloads::traceUri(path));

        EXPECT_FALSE(res.recipe.has_value());
        EXPECT_FALSE(res.program.code.empty());
        EXPECT_FALSE(res.program.data.empty());
        if (unbuilt) {
            ASSERT_TRUE(id.recipe.has_value());
            EXPECT_TRUE(id.program.code.empty());
            EXPECT_TRUE(id.program.data.empty());
            EXPECT_TRUE(workloads::buildBenchmark(*id.recipe) ==
                        res.program);
        } else {
            EXPECT_FALSE(id.recipe.has_value());
            EXPECT_TRUE(id.program == res.program);
        }
    }
    std::remove(path.c_str());

    // A System builds an identified workload's program when it loads it.
    sim::MetricsOptions small;
    small.guestBudget = 20'000;
    EXPECT_EQ(sim::diffRunSnapshots(
                  sim::snapshotRun(workloads::identifyWorkload("429.mcf"),
                                   small),
                  sim::snapshotRun(workloads::resolveWorkload("429.mcf"),
                                   small)),
              "");
}

// ---------------------------------------------------------------------
// Capture -> replay bit-identity across the four paper suites.
// ---------------------------------------------------------------------

class TraceRoundTrip : public testing::TestWithParam<const char *>
{};

TEST_P(TraceRoundTrip, ReplayIsBitIdentical)
{
    // A short run and a 2M-instruction run that spends most of its
    // budget in steady-state SBM.
    for (const uint64_t budget : {uint64_t{150'000}, uint64_t{2'000'000}}) {
        SCOPED_TRACE(budget);
        const uint32_t sb_threshold = sim::scaledSbThreshold(budget);
        const std::string path =
            tempPath(std::string("rt_") + GetParam() + ".dtrc");

        const workloads::Workload live_workload = workloads::resolveWorkload(
            workloads::syntheticUri(GetParam()));
        sim::MetricsOptions live_options;
        live_options.guestBudget = budget;
        live_options.tolConfig.bbToSbThreshold = sb_threshold;
        live_options.captureTracePath = path;
        const sim::RunSnapshot live =
            sim::snapshotRun(live_workload, live_options);

        const workloads::Workload replayed =
            workloads::resolveWorkload(workloads::traceUri(path));
        ASSERT_TRUE(replayed.capturedMeta.has_value());
        ASSERT_TRUE(replayed.capturedPins.has_value());
        EXPECT_EQ(replayed.name, live_workload.name);
        EXPECT_EQ(replayed.suite, live_workload.suite);
        EXPECT_EQ(replayed.capturedMeta->guestBudget, budget);
        EXPECT_EQ(replayed.capturedMeta->bbToSbThreshold, sb_threshold);
        EXPECT_EQ(replayed.program.code, live_workload.program.code);

        // snapshotRun re-applies the trace's capture recipe itself.
        const sim::RunSnapshot replay =
            sim::snapshotRun(replayed, sim::MetricsOptions{});

        // The acceptance contract: every determinism field identical.
        EXPECT_EQ(live.result.guestRetired, replay.result.guestRetired);
        EXPECT_EQ(live.result.cycles, replay.result.cycles);
        EXPECT_EQ(live.result.halted, replay.result.halted);
        EXPECT_EQ(live.stats.records, replay.stats.records);
        EXPECT_EQ(timing::diffStats(live.stats, replay.stats), "");
        EXPECT_EQ(tol::diffTolStats(live.tolStats, replay.tolStats), "");

        // And the pins inside the file describe both runs.
        const trace::TracePins &pins = *replayed.capturedPins;
        EXPECT_EQ(pins.guestRetired, replay.result.guestRetired);
        EXPECT_EQ(pins.simCycles, replay.result.cycles);
        EXPECT_EQ(pins.hostRecords, replay.stats.records);
        EXPECT_EQ(pins.dynIm, replay.tolStats.dynIm);
        EXPECT_EQ(pins.dynBbm, replay.tolStats.dynBbm);
        EXPECT_EQ(pins.dynSbm, replay.tolStats.dynSbm);
        EXPECT_EQ(pins.bbsTranslated, replay.tolStats.bbsTranslated);
        EXPECT_EQ(pins.sbsCreated, replay.tolStats.sbsCreated);
        EXPECT_EQ(pins.guestIndirectBranches,
                  replay.tolStats.guestIndirectBranches);
        EXPECT_EQ(pins.timingCore, "event");

        std::remove(path.c_str());
    }
}

// One representative per paper suite (SPEC INT, SPEC FP, Physics,
// Media) — the same set the threshold ablation uses.
INSTANTIATE_TEST_SUITE_P(
    FourSuites, TraceRoundTrip,
    testing::Values("464.h264ref", "436.cactusADM",
                    "104.novis_explosions", "005.h264enc"),
    [](const testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

TEST_P(TraceRoundTrip, ReplayProfilesAreBitIdentical)
{
    // Characterization profiles ride the same determinism contract:
    // capture a profiled run, replay the trace with profiling on, and
    // require the reuse histogram and branch profile to match
    // bit-for-bit (profile::diffProfiles empty).
    constexpr uint64_t kBudget = 100'000;
    const std::string path =
        tempPath(std::string("rtp_") + GetParam() + ".dtrc");

    const workloads::Workload live_workload =
        workloads::resolveWorkload(workloads::syntheticUri(GetParam()));
    sim::MetricsOptions options;
    options.guestBudget = kBudget;
    options.profile = true;
    options.captureTracePath = path;
    const sim::RunSnapshot live =
        sim::snapshotRun(live_workload, options);
    ASSERT_TRUE(live.profile.has_value());

    const workloads::Workload replayed =
        workloads::resolveWorkload(workloads::traceUri(path));
    sim::MetricsOptions replay_options;
    replay_options.profile = true;
    const sim::RunSnapshot replay =
        sim::snapshotRun(replayed, replay_options);
    ASSERT_TRUE(replay.profile.has_value());

    EXPECT_EQ(profile::diffProfiles(*live.profile, *replay.profile),
              "");
    EXPECT_TRUE(*live.profile == *replay.profile);
    // Profiling must not perturb the replay determinism fields.
    EXPECT_EQ(live.result.cycles, replay.result.cycles);
    EXPECT_EQ(timing::diffStats(live.stats, replay.stats), "");
    std::remove(path.c_str());
}

TEST(TraceCapture, MetricsOptionsPassthrough)
{
    // The MetricsOptions capture path reaches System and produces a
    // replayable trace whose metrics equal the capturing run's.
    const std::string path = tempPath("metrics_capture.dtrc");
    sim::MetricsOptions options;
    options.guestBudget = 120'000;
    options.tolConfig.bbToSbThreshold = 300;
    options.captureTracePath = path;
    const sim::BenchMetrics live = sim::collectMetrics(
        sim::snapshotRun(workloads::resolveWorkload(
                             workloads::syntheticUri("401.bzip2")),
                         options),
        "401.bzip2", "SPEC INT");

    const workloads::Workload replayed =
        workloads::resolveWorkload(workloads::traceUri(path));
    ASSERT_TRUE(replayed.capturedPins.has_value());
    EXPECT_EQ(replayed.capturedPins->guestRetired, live.guestRetired);
    EXPECT_EQ(replayed.capturedPins->simCycles, live.cycles);

    options.captureTracePath.clear();
    const sim::BenchMetrics replay = sim::collectMetrics(
        sim::snapshotRun(replayed, options), replayed.name,
        replayed.suite);
    EXPECT_EQ(replay.name, "401.bzip2");
    EXPECT_EQ(replay.suite, "SPEC INT");
    EXPECT_EQ(replay.guestRetired, live.guestRetired);
    EXPECT_EQ(replay.cycles, live.cycles);
    EXPECT_EQ(replay.dynIm, live.dynIm);
    EXPECT_EQ(replay.dynBbm, live.dynBbm);
    EXPECT_EQ(replay.dynSbm, live.dynSbm);
    std::remove(path.c_str());
}

} // namespace
