/**
 * @file
 * Run-manifest schema tests: golden round-trip (write -> parse ->
 * field-by-field compare), schema-version rejection, run-to-run
 * determinism (identical runs differ only in timestamps/durations),
 * and the SweepEngine integration that fills a manifest with one
 * entry per grid cell.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/build_info.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "workloads/catalog.hh"

namespace pipedepth
{
namespace
{

/** Populate @p m as a small manifest with fixed, known content. */
void
fillGolden(RunManifest &m)
{
    m.setTool("test_manifest");
    const char *argv[] = {"test_manifest", "--flag", "value"};
    m.setArgv(3, argv);
    m.addMeta("sim_version", "pipedepth-sim-2");
    m.addMeta("cache_dir", "/tmp/cache");

    ManifestCell cell;
    cell.workload = "gcc95";
    cell.depth = 7;
    cell.outcome = ManifestCell::Outcome::Computed;
    cell.instructions = 200000;
    m.recordCell(cell);

    cell.depth = 8;
    cell.outcome = ManifestCell::Outcome::Cached;
    m.recordCell(cell);
}

/** fillGolden rendered to JSON text. */
std::string
goldenJson()
{
    RunManifest m;
    fillGolden(m);
    return m.toJson();
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Parse @p text, asserting success. */
JsonValue
parsed(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, &doc, &error)) << error;
    return doc;
}

class ManifestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("pipedepth-manifest-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        SpanTracer::instance().setEnabled(false);
        SpanTracer::instance().clear();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(ManifestTest, GoldenRoundTripFieldByField)
{
    RunManifest m;
    fillGolden(m);
    const std::filesystem::path path = dir_ / "manifest.json";
    ASSERT_TRUE(m.write(path.string()));

    const JsonValue doc = parsed(readFile(path));
    std::string error;
    EXPECT_TRUE(validateManifest(doc, &error)) << error;

    EXPECT_EQ(doc.find("schema_version")->number,
              RunManifest::kSchemaVersion);
    EXPECT_EQ(doc.find("tool")->string, "test_manifest");
    // Only a run that ended writes a manifest.
    EXPECT_EQ(doc.find("status")->string, "complete");
    EXPECT_EQ(doc.find("git")->string, gitDescribe());
    EXPECT_FALSE(doc.find("created_at")->string.empty());

    const JsonValue *argv = doc.find("argv");
    ASSERT_EQ(argv->array.size(), 3u);
    EXPECT_EQ(argv->array[0].string, "test_manifest");
    EXPECT_EQ(argv->array[1].string, "--flag");
    EXPECT_EQ(argv->array[2].string, "value");

    const JsonValue *meta = doc.find("meta");
    EXPECT_EQ(meta->find("sim_version")->string, "pipedepth-sim-2");
    EXPECT_EQ(meta->find("cache_dir")->string, "/tmp/cache");

    // v3 keeps only what a run measured: no failed or retried count,
    // and no per-cell attempts or seconds.
    const auto keysOf = [](const JsonValue &object) {
        std::vector<std::string> keys;
        for (const auto &[key, value] : object.object)
            keys.push_back(key);
        return keys;
    };
    const JsonValue *counts = doc.find("cell_counts");
    EXPECT_EQ(keysOf(*counts),
              (std::vector<std::string>{"total", "computed", "cached",
                                        "quarantined"}));
    EXPECT_EQ(counts->find("total")->number, 2.0);
    EXPECT_EQ(counts->find("computed")->number, 1.0);
    EXPECT_EQ(counts->find("cached")->number, 1.0);
    EXPECT_EQ(counts->find("quarantined")->number, 0.0);

    const JsonValue *cells = doc.find("cells");
    ASSERT_EQ(cells->array.size(), 2u);
    const JsonValue &first = cells->array[0];
    EXPECT_EQ(keysOf(first),
              (std::vector<std::string>{"workload", "depth", "outcome",
                                        "instructions"}));
    EXPECT_EQ(first.find("workload")->string, "gcc95");
    EXPECT_EQ(first.find("depth")->number, 7.0);
    EXPECT_EQ(first.find("outcome")->string, "computed");
    EXPECT_EQ(first.find("instructions")->number, 200000.0);
    EXPECT_EQ(cells->array[1].find("outcome")->string, "cached");

    EXPECT_TRUE(doc.find("metrics")->isObject());
    EXPECT_TRUE(doc.find("spans")->isObject());
}

TEST_F(ManifestTest, ValidateRejectsOtherSchemaVersions)
{
    JsonValue doc = parsed(goldenJson());
    ASSERT_TRUE(validateManifest(doc));

    for (auto &[key, value] : doc.object) {
        if (key == "schema_version")
            value.number = RunManifest::kSchemaVersion + 1;
    }
    std::string error;
    EXPECT_FALSE(validateManifest(doc, &error));
    EXPECT_NE(error.find("schema_version"), std::string::npos);
}

TEST_F(ManifestTest, ValidateRejectsStructuralDamage)
{
    // Remove "tool".
    JsonValue doc = parsed(goldenJson());
    doc.object.erase(
        std::remove_if(doc.object.begin(), doc.object.end(),
                       [](const auto &kv) { return kv.first == "tool"; }),
        doc.object.end());
    std::string error;
    EXPECT_FALSE(validateManifest(doc, &error));
    EXPECT_NE(error.find("tool"), std::string::npos);

    // Unknown cell outcome, and the v2 "failed" outcome v3 dropped.
    for (const char *outcome : {"guessed", "failed"}) {
        doc = parsed(goldenJson());
        for (auto &[key, value] : doc.object) {
            if (key == "cells") {
                for (auto &[ckey, cvalue] : value.array[0].object) {
                    if (ckey == "outcome")
                        cvalue.string = outcome;
                }
            }
        }
        EXPECT_FALSE(validateManifest(doc, &error)) << outcome;
        EXPECT_NE(error.find("outcome"), std::string::npos) << outcome;
    }

    // cell_counts.total disagreeing with cells[].
    doc = parsed(goldenJson());
    for (auto &[key, value] : doc.object) {
        if (key == "cell_counts") {
            for (auto &[ckey, cvalue] : value.object) {
                if (ckey == "total")
                    cvalue.number = 99;
            }
        }
    }
    EXPECT_FALSE(validateManifest(doc, &error));
    EXPECT_NE(error.find("total"), std::string::npos);
}

/** Replace timestamp-bearing fields with fixed placeholders. */
JsonValue
normalized(JsonValue doc)
{
    for (auto &[key, value] : doc.object) {
        if (key == "created_at")
            value.string = "TIME";
    }
    return doc;
}

TEST_F(ManifestTest, IdenticalRunsDifferOnlyInTimestamps)
{
    // Two manifests describing the same run, built back to back with
    // the registry in the same state, must serialize identically up
    // to wall-clock fields.
    MetricsRegistry::instance().resetAll();
    MetricsRegistry::instance().counter("test.manifest.det").add(3);

    RunManifest a, b;
    fillGolden(a);
    fillGolden(b);
    const JsonValue da = normalized(parsed(a.toJson()));
    const JsonValue db = normalized(parsed(b.toJson()));
    EXPECT_EQ(da.dump(), db.dump());
}

TEST_F(ManifestTest, SweepEngineFillsOneCellPerGridPoint)
{
    // Two workloads at 4 threads: the groups of both resolve
    // concurrently, yet cells[] must list the grid in plan order,
    // workload-major with depth ascending, whichever cell finished
    // first.
    SweepOptions opt;
    opt.min_depth = 2;
    opt.max_depth = 25;
    opt.trace_length = 20000;
    opt.warmup_instructions = 5000;
    const std::vector<WorkloadSpec> specs = {findWorkload("gcc95"),
                                             findWorkload("db1")};
    const std::size_t n_depths = 24;

    SweepEngineOptions eng_opt;
    eng_opt.cache_dir = (dir_ / "cache").string();
    eng_opt.threads = 4;

    const auto expectPlanOrder = [&](const RunManifest &m,
                                     ManifestCell::Outcome outcome) {
        const std::vector<ManifestCell> &cells = m.cells();
        ASSERT_EQ(cells.size(), specs.size() * n_depths);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_EQ(cells[i].workload, specs[i / n_depths].name)
                << "cell " << i;
            EXPECT_EQ(cells[i].depth,
                      opt.min_depth + static_cast<int>(i % n_depths))
                << "cell " << i;
            EXPECT_EQ(cells[i].outcome, outcome) << "cell " << i;
            EXPECT_GT(cells[i].instructions, 0u) << "cell " << i;
        }
    };

    RunManifest cold_manifest;
    {
        SweepEngine engine(eng_opt);
        engine.attachManifest(&cold_manifest);
        engine.runGrid(specs, opt);
    }
    expectPlanOrder(cold_manifest, ManifestCell::Outcome::Computed);

    std::string error;
    EXPECT_TRUE(validateManifest(parsed(cold_manifest.toJson()), &error))
        << error;

    // A warm run against the same cache reports every cell cached.
    RunManifest warm_manifest;
    {
        SweepEngine engine(eng_opt);
        engine.attachManifest(&warm_manifest);
        engine.runGrid(specs, opt);
    }
    expectPlanOrder(warm_manifest, ManifestCell::Outcome::Cached);
}

} // namespace
} // namespace pipedepth
