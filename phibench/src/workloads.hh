/**
 * @file
 * The benchmark's workloads. Each runs set-up, a closed-loop timed
 * window and its output checks, and fills @p report with the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run, Options::trace).
 */

#ifndef PHIBENCH_WORKLOADS_HH
#define PHIBENCH_WORKLOADS_HH

#include "common.hh"

namespace phibench
{

/** vgg16_clustered (@p clustered) or vgg16_unclustered. */
void runVgg(const Options& opt, bool clustered, Report& report);

/** sessions_wire. */
void runSessions(const Options& opt, Report& report);

} // namespace phibench

#endif // PHIBENCH_WORKLOADS_HH
