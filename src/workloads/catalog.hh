/**
 * @file
 * The 55-workload catalog.
 *
 * The paper simulates 55 proprietary traces spanning four families:
 * "traditional (legacy) database and on-line transaction processing
 * applications, modern (e.g. web) applications, SPEC95 and SPEC2000
 * integer applications, and floating point applications". This
 * catalog defines 55 synthetic workloads with the same family
 * structure and the family characteristics the paper relies on:
 *
 *  - Legacy (15): assembler-era DB/OLTP — large instruction
 *    footprints (I-cache pressure), large data working sets, hard
 *    branches, tight dependence chains (low superscalar utilization).
 *  - Modern (12): C++/Java server code — big-ish footprints, many
 *    calls/indirect-ish branches, moderate dependence distance.
 *  - SPECint95 (10) and SPECint2000 (8): loopy, predictable,
 *    cache-resident integer codes ("less stressful of the processor
 *    than real workloads"); SPEC2000 with somewhat larger footprints.
 *  - Floating point (10): FP-dominated loops; few, highly predictable
 *    branches; streaming memory; long unpipelined FP latencies
 *    that slash the effective superscalar degree (which is what
 *    spreads their optimum depths far to the right in Fig. 7).
 *
 * Every entry is deterministic: name -> seed -> trace.
 */

#ifndef PIPEDEPTH_WORKLOADS_CATALOG_HH
#define PIPEDEPTH_WORKLOADS_CATALOG_HH

#include <string>
#include <vector>

#include "trace/generator.hh"

namespace pipedepth
{

/** Workload families of the paper's Fig. 7. */
enum class WorkloadClass
{
    Legacy,
    Modern,
    SpecInt95,
    SpecInt2000,
    SpecFp,
};

/** Family name for reports ("legacy", "modern", ...). */
std::string workloadClassName(WorkloadClass cls);

/** One catalog entry. */
struct WorkloadSpec
{
    std::string name;
    WorkloadClass cls = WorkloadClass::Modern;
    TraceGenParams gen;

    /** Generate this workload's trace (optionally overriding length). */
    Trace makeTrace(std::size_t length = 0) const;

    /** Generate this workload straight into a replay buffer: what
     *  prepareReplay makes of makeTrace(length), with no Trace held. */
    ReplayBuffer makeReplay(std::size_t length = 0) const;
};

/** The full 55-entry catalog, stable order. */
const std::vector<WorkloadSpec> &workloadCatalog();

/** Catalog entries of one family. */
std::vector<WorkloadSpec> workloadsOfClass(WorkloadClass cls);

/** Find a workload by name; fatal if absent. */
const WorkloadSpec &findWorkload(const std::string &name);

} // namespace pipedepth

#endif // PIPEDEPTH_WORKLOADS_CATALOG_HH
