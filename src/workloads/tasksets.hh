/**
 * @file
 * Task-set vocabulary for the multi-task scheduler experiments: named
 * benchmark bundles (built from the C-lab suite) and a parser for
 * ad-hoc "cnt,mm:2,srt" member lists. This module only names members;
 * budgets and periods are derived by makeTaskSetDefs (core/experiment.hh)
 * from the analyzed WCETs and a target core utilization.
 */

#ifndef VISA_WORKLOADS_TASKSETS_HH
#define VISA_WORKLOADS_TASKSETS_HH

#include <string>
#include <vector>

namespace visa
{

/** One member of a task set. */
struct TaskSetMemberSpec
{
    std::string workload;
    /**
     * Multiplies this member's derived period, lowering its share of
     * the target utilization (the harness scales the whole set so the
     * total still hits the target when all scales are 1).
     */
    double periodScale = 1.0;
};

/**
 * Resolve @p spec into members: either a predefined set name ("trio",
 * "duo", "clab6", "mixed"), or a comma-separated member list where
 * each member is `workload[:periodScale]` (e.g. "cnt,mm:2,srt:1.5").
 * Workload names are validated against the benchmark suite; fatal on
 * unknown names, malformed scales, or an empty spec.
 */
std::vector<TaskSetMemberSpec> parseTaskSet(const std::string &spec);

} // namespace visa

#endif // VISA_WORKLOADS_TASKSETS_HH
