#include "workloads/catalog.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pipedepth
{

std::string
workloadClassName(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::Legacy:
        return "legacy";
      case WorkloadClass::Modern:
        return "modern";
      case WorkloadClass::SpecInt95:
        return "specint95";
      case WorkloadClass::SpecInt2000:
        return "specint2000";
      case WorkloadClass::SpecFp:
        return "specfp";
    }
    PP_PANIC("bad workload class");
}

namespace
{

/** @p gen at @p length (0: its own length). */
TraceGenParams
atLength(TraceGenParams gen, std::size_t length)
{
    if (length)
        gen.length = length;
    return gen;
}

/**
 * Deterministic per-workload jitter: scales a base value by a factor
 * in [1-spread, 1+spread] drawn from the workload's private stream.
 */
double
jitter(Rng &rng, double base, double spread)
{
    return base * rng.uniform(1.0 - spread, 1.0 + spread);
}

WorkloadSpec
makeLegacy(int idx)
{
    Rng rng(0x1e9ac700ull + static_cast<std::uint64_t>(idx));
    WorkloadSpec w;
    w.name = (idx % 2 ? "oltp" : "db") + std::to_string(idx / 2 + 1);
    w.cls = WorkloadClass::Legacy;
    TraceGenParams &g = w.gen;
    g.seed = rng.next();
    // Hand-written assembler: dense branches, big footprints, tight
    // dependence chains, scattered data accesses.
    g.branch_frac = jitter(rng, 0.21, 0.12);
    g.cond_branch_share = 0.82;
    g.n_blocks = static_cast<int>(jitter(rng, 3500, 0.35));
    g.loop_branch_frac = 0.52;
    g.periodic_branch_frac = 0.03;
    g.random_branch_frac = jitter(rng, 0.01, 0.4);
    g.bias_margin_min = 0.40;
    g.biased_taken_share = 0.85;
    g.backward_frac = 0.30;
    g.frac_load = jitter(rng, 0.22, 0.15);
    g.frac_store = jitter(rng, 0.11, 0.15);
    g.frac_alumem = jitter(rng, 0.04, 0.3);
    // Proxies for the multi-cycle storage/decimal instructions of
    // S/390 assembler code: unpipelined long ops serialize execution
    // and lower the effective superscalar degree the same way FP ops
    // do in the paper's floating-point discussion.
    g.frac_mul = jitter(rng, 0.065, 0.3);
    g.frac_div = jitter(rng, 0.018, 0.3);
    g.frac_fp = 0.0;
    g.data_working_set = static_cast<std::uint64_t>(
        jitter(rng, 2.0 * (1 << 20), 0.5));
    g.hot_frac = 0.68;
    g.stream_frac = 0.17;
    g.uniform_region_bytes = 2 * 1024;
    // Hand-scheduled assembler consumes values almost immediately:
    // the tight dependences keep the effective superscalar degree
    // low, and (as in the paper's floating-point discussion) a low
    // alpha is what pushes the optimum deeper than SPECint in Fig. 7
    // even though the code is otherwise more stressful.
    g.dep_near = jitter(rng, 0.68, 0.08);
    g.mean_dep_dist = jitter(rng, 2.0, 0.2);
    return w;
}

WorkloadSpec
makeModern(int idx)
{
    Rng rng(0x30de4200ull + static_cast<std::uint64_t>(idx));
    WorkloadSpec w;
    static const char *const names[] = {"websrv",  "javabb",   "xmlparse",
                                        "servlet", "cppcad",   "jitopt",
                                        "collab",  "msgqueue", "approuter",
                                        "gcbench", "uiengine", "restapi"};
    w.name = names[idx % 12];
    w.cls = WorkloadClass::Modern;
    TraceGenParams &g = w.gen;
    g.seed = rng.next();
    // C++/Java server code: call-heavy control flow, medium working
    // sets, moderate dependence distances.
    g.branch_frac = jitter(rng, 0.18, 0.12);
    g.cond_branch_share = 0.78;
    g.n_blocks = static_cast<int>(jitter(rng, 2500, 0.35));
    g.loop_branch_frac = 0.55;
    g.periodic_branch_frac = 0.05;
    g.random_branch_frac = 0.015;
    g.bias_margin_min = 0.32;
    g.biased_taken_share = 0.65;
    g.backward_frac = 0.35;
    g.frac_load = jitter(rng, 0.24, 0.12);
    g.frac_store = jitter(rng, 0.12, 0.15);
    g.frac_alumem = 0.03;
    g.frac_mul = 0.02;
    g.frac_div = 0.005;
    g.frac_fp = 0.01;
    g.data_working_set = static_cast<std::uint64_t>(
        jitter(rng, 1.5 * (1 << 20), 0.5));
    g.hot_frac = 0.62;
    g.stream_frac = 0.22;
    g.uniform_region_bytes = 4 * 1024;
    g.dep_near = jitter(rng, 0.50, 0.12);
    g.mean_dep_dist = jitter(rng, 3.4, 0.2);
    return w;
}

WorkloadSpec
makeSpecInt(int idx, bool is2000)
{
    Rng rng((is2000 ? 0x2000c1ull : 0x95c1ull) +
            static_cast<std::uint64_t>(idx) * 977);
    WorkloadSpec w;
    static const char *const n95[] = {"go95",   "m88ksim", "gcc95",
                                      "compress", "li95",  "ijpeg",
                                      "perl95", "vortex95", "eqn95",
                                      "sc95"};
    static const char *const n2000[] = {"gzip00", "vpr00",  "gcc00",
                                        "mcf00",  "crafty00", "parser00",
                                        "gap00",  "bzip200"};
    w.name = is2000 ? n2000[idx % 8] : n95[idx % 10];
    w.cls = is2000 ? WorkloadClass::SpecInt2000 : WorkloadClass::SpecInt95;
    TraceGenParams &g = w.gen;
    g.seed = rng.next();
    // Loopy compiled integer codes: predictable branches, small
    // footprints, looser dependence chains than "real" workloads.
    g.branch_frac = jitter(rng, 0.15, 0.15);
    g.cond_branch_share = 0.85;
    g.n_blocks = static_cast<int>(jitter(rng, is2000 ? 1300 : 850, 0.35));
    g.loop_branch_frac = 0.66;
    g.periodic_branch_frac = 0.06;
    g.random_branch_frac = 0.015;
    g.bias_margin_min = 0.38;
    g.backward_frac = 0.45;
    g.frac_load = jitter(rng, 0.22, 0.15);
    g.frac_store = jitter(rng, 0.09, 0.2);
    g.frac_alumem = 0.02;
    g.frac_mul = 0.02;
    g.frac_div = 0.003;
    g.frac_fp = 0.0;
    g.data_working_set = static_cast<std::uint64_t>(
        jitter(rng, (is2000 ? 0.6 : 0.35) * (1 << 20), 0.4));
    g.hot_frac = 0.62;
    g.stream_frac = 0.28;
    g.uniform_region_bytes = 4 * 1024;
    g.dep_near = jitter(rng, 0.38, 0.15);
    g.mean_dep_dist = jitter(rng, 5.5, 0.25);
    return w;
}

WorkloadSpec
makeSpecFp(int idx)
{
    Rng rng(0xf9ull + static_cast<std::uint64_t>(idx) * 3571);
    WorkloadSpec w;
    static const char *const names[] = {"tomcatv", "swim",   "su2cor",
                                        "hydro2d", "mgrid",  "applu",
                                        "turb3d",  "apsi",   "wave5",
                                        "fpppp"};
    w.name = names[idx % 10];
    w.cls = WorkloadClass::SpecFp;
    TraceGenParams &g = w.gen;
    g.seed = rng.next();
    // FP loop nests: few and predictable branches, streaming memory,
    // heavy unpipelined FP usage that serializes execution.
    g.branch_frac = jitter(rng, 0.09, 0.25);
    g.cond_branch_share = 0.90;
    g.n_blocks = static_cast<int>(jitter(rng, 700, 0.4));
    g.loop_branch_frac = 0.70;
    g.periodic_branch_frac = 0.10;
    g.random_branch_frac = 0.01;
    g.bias_margin_min = 0.35;
    g.backward_frac = 0.60;
    g.frac_load = jitter(rng, 0.24, 0.15);
    g.frac_store = jitter(rng, 0.10, 0.2);
    g.frac_alumem = 0.01;
    g.frac_mul = 0.01;
    g.frac_div = 0.001;
    // FP intensity varies a lot across the suite, which is what
    // spreads the FP optima across 6..16 stages in Fig. 7.
    g.frac_fp = jitter(rng, 0.30, 0.5);
    g.fp_add_share = 0.45;
    g.fp_mul_share = 0.40;
    g.fp_div_share = 0.08;
    g.data_working_set = static_cast<std::uint64_t>(
        jitter(rng, 4.0 * (1 << 20), 0.5));
    g.hot_frac = 0.30;
    g.stream_frac = 0.55;
    g.uniform_region_bytes = 8 * 1024;
    g.dep_near = jitter(rng, 0.45, 0.2);
    g.mean_dep_dist = jitter(rng, 4.5, 0.25);
    return w;
}

std::vector<WorkloadSpec>
buildCatalog()
{
    std::vector<WorkloadSpec> all;
    all.reserve(55);
    for (int i = 0; i < 15; ++i)
        all.push_back(makeLegacy(i));
    for (int i = 0; i < 12; ++i)
        all.push_back(makeModern(i));
    for (int i = 0; i < 10; ++i)
        all.push_back(makeSpecInt(i, false));
    for (int i = 0; i < 8; ++i)
        all.push_back(makeSpecInt(i, true));
    for (int i = 0; i < 10; ++i)
        all.push_back(makeSpecFp(i));
    PP_ASSERT(all.size() == 55, "catalog must have 55 workloads");

    // Validate every entry at load, before anything simulates: a NaN
    // or out-of-range generator parameter (a bad jitter edit, a
    // corrupted constant) must fail here naming the workload and the
    // field, not propagate garbage into a 55x24 grid.
    for (const WorkloadSpec &w : all) {
        if (w.name.empty())
            PP_FATAL("catalog entry with empty workload name");
        const std::string error = w.gen.validationError();
        if (!error.empty())
            PP_FATAL("workload '", w.name, "': ", error);
    }
    return all;
}

} // namespace

Trace
WorkloadSpec::makeTrace(std::size_t length) const
{
    return generateTrace(atLength(gen, length), name);
}

ReplayBuffer
WorkloadSpec::makeReplay(std::size_t length) const
{
    return generateReplay(atLength(gen, length), name);
}

const std::vector<WorkloadSpec> &
workloadCatalog()
{
    static const std::vector<WorkloadSpec> catalog = buildCatalog();
    return catalog;
}

std::vector<WorkloadSpec>
workloadsOfClass(WorkloadClass cls)
{
    std::vector<WorkloadSpec> out;
    for (const auto &w : workloadCatalog()) {
        if (w.cls == cls)
            out.push_back(w);
    }
    return out;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const auto &w : workloadCatalog()) {
        if (w.name == name)
            return w;
    }
    PP_FATAL("no such workload: ", name);
}

} // namespace pipedepth
