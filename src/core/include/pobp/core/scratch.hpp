// SolveScratch: every reusable buffer one full pipeline solve needs.
//
// The engine's per-worker Session owns exactly one SolveScratch and passes
// it down through seed → laminarize → forest → prune → left-merge → LSA_CS.
// Each stage's typed scratch struct lives where it is consumed (EdfScratch
// in schedule/, TmScratch in bas/, ...); this header only aggregates them —
// plus the shared id-partition buffers — so the core entry points can
// thread one pointer instead of seven.  No stage copies the job set: every
// kernel reads the JobSet's own columns through a JobSetView, so
// `columns` is filled only by perfbench's traced replay.
//
// Contract (see docs/PERF.md): a scratch must only ever be used by one
// thread at a time, results are bit-identical whether a scratch is fresh
// or reused across instances, and once every buffer has grown to the
// largest instance seen, a solve performs no steady-state heap allocations
// in the TM / laminarize / left-merge path beyond materializing its result
// schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "pobp/lsa/lsa.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/schedule/job.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"

namespace pobp {

struct SolveScratch {
  GreedyScratch greedy;        ///< seed stage
  ReductionScratch reduction;  ///< laminarize/forest/TM/left-merge stages
  LsaScratch lsa;              ///< lax branch and k = 0 path
  JobColumns columns;          ///< perfbench's replay only (see above)

  std::vector<JobId> ids;        ///< all-ids staging
  std::vector<std::uint64_t> subhashes;  ///< solve-cache per-job sub-hashes
  std::vector<JobId> remaining;  ///< k = 0 residual staging
  std::vector<JobId> strict_ids; ///< strict jobs of every seed machine
  std::vector<std::size_t> strict_begin;  ///< machine m: [begin[m], begin[m+1])
  std::vector<JobId> lax_ids;    ///< accumulated lax partition

  // --- result arena (docs/PERF.md) -----------------------------------------
  // Pooled materialization targets for every schedule the pipeline builds:
  // Schedule::reset() / MachineSchedule::clear() retain the per-job segment
  // vectors and the flat job index, so a warmed session re-solves without
  // touching the heap.  The winning branch is deep-copied — pooled, via
  // Schedule::assign_from — into the caller's ScheduleResult; moving it out
  // instead would strip the arena's capacity every solve.
  Schedule seed{1};           ///< stage-1 ∞-preemptive reference schedule
  Schedule strict_sched{1};   ///< Alg. 3 strict branch
  Schedule lax_sched{1};      ///< Alg. 3 lax branch (LSA_CS)
  Schedule full_sched{1};     ///< Theorem 4.2 full-reduction branch
  MachineSchedule laminar_stage;  ///< per-machine laminarize staging
  ValidateScratch validate;   ///< allocation-free validator state
};

}  // namespace pobp
