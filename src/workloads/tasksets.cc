#include "workloads/tasksets.hh"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "sim/logging.hh"
#include "workloads/clab.hh"

namespace visa
{

namespace
{

const std::map<std::string, std::vector<TaskSetMemberSpec>> &
namedSets()
{
    // Periods stagger by small coprime-ish scales so the sets exercise
    // preemption (jobs of different tasks overlap) without locking the
    // releases into a trivial harmonic pattern.
    static const std::map<std::string, std::vector<TaskSetMemberSpec>>
        sets = {
            {"duo", {{"cnt", 1.0}, {"fir", 1.5}}},
            {"trio", {{"cnt", 1.0}, {"mm", 1.5}, {"srt", 2.0}}},
            {"mixed",
             {{"crc", 1.0}, {"fft", 1.5}, {"jfdctint", 2.0},
              {"lms", 2.5}}},
            {"clab6",
             {{"adpcm", 1.0}, {"cnt", 1.5}, {"fft", 2.0}, {"lms", 2.5},
              {"mm", 3.0}, {"srt", 3.5}}},
        };
    return sets;
}

} // anonymous namespace

std::vector<TaskSetMemberSpec>
parseTaskSet(const std::string &spec)
{
    if (spec.empty())
        fatal("empty task-set spec");
    const auto &sets = namedSets();
    if (auto it = sets.find(spec); it != sets.end())
        return it->second;

    const std::vector<std::string> &known = allWorkloadNames();
    std::vector<TaskSetMemberSpec> members;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            fatal("task-set spec '%s': empty member", spec.c_str());
        TaskSetMemberSpec m;
        if (std::size_t colon = item.find(':');
            colon != std::string::npos) {
            m.workload = item.substr(0, colon);
            const std::string scale = item.substr(colon + 1);
            char *end = nullptr;
            m.periodScale = std::strtod(scale.c_str(), &end);
            if (scale.empty() || *end != '\0' || m.periodScale <= 0.0)
                fatal("task-set member '%s': bad period scale '%s'",
                      item.c_str(), scale.c_str());
        } else {
            m.workload = item;
        }
        if (std::find(known.begin(), known.end(), m.workload) ==
            known.end())
            fatal("task-set member '%s': unknown workload (not a named "
                  "set either)",
                  m.workload.c_str());
        members.push_back(std::move(m));
    }
    return members;
}

} // namespace visa
