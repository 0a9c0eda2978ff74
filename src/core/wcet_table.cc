#include "core/wcet_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace visa
{

WcetTable::WcetTable(const WcetAnalyzer &analyzer, const DvsTable &dvs,
                     const DMissProfile *dmiss)
    : numSubtasks_(analyzer.numSubtasks())
{
    const auto s = static_cast<std::size_t>(numSubtasks_);
    const std::size_t rows = dvs.settings().size();
    freqs_.reserve(rows);
    taskCycles_.reserve(rows);
    cycles_.reserve(rows * s);
    remaining_.reserve(rows * (s + 1));
    for (const auto &setting : dvs.settings()) {
        const MHz f = setting.freq;
        const WcetReport rep = analyzer.analyze(f, dmiss);
        if (rep.subtaskCycles.size() != s)
            panic("wcet table: %zu sub-task bounds for %zu sub-tasks",
                  rep.subtaskCycles.size(), s);
        freqs_.push_back(f);
        Cycles total = 0;
        for (Cycles c : rep.subtaskCycles)
            total += c;
        taskCycles_.push_back(total);
        cycles_.insert(cycles_.end(), rep.subtaskCycles.begin(),
                       rep.subtaskCycles.end());
        // Each tail is summed forward from k, term by term: a backward
        // running suffix sum rounds differently and would move EQ 1
        // checkpoints and EQ 2/EQ 4 decisions (FreqSpecPin pins them).
        for (std::size_t k = 0; k <= s; ++k) {
            double sum = 0.0;
            for (std::size_t i = k; i < s; ++i)
                sum += static_cast<double>(rep.subtaskCycles[i]) /
                       (f * 1e6);
            remaining_.push_back(sum);
        }
    }
}

std::size_t
WcetTable::rowOf(MHz f) const
{
    // DVS settings are evenly spaced up to rounding, so interpolating
    // between the end points lands on f's row; the scan covers any
    // other grid.
    if (!freqs_.empty() && freqs_.front() < freqs_.back() &&
        f >= freqs_.front() && f <= freqs_.back()) {
        const std::size_t span = freqs_.back() - freqs_.front();
        const std::size_t guess =
            ((f - freqs_.front()) * (freqs_.size() - 1) + span / 2) / span;
        if (freqs_[guess] == f)
            return guess;
    }
    const auto it = std::find(freqs_.begin(), freqs_.end(), f);
    if (it == freqs_.end())
        fatal("wcet table: no entry for %u MHz", f);
    return static_cast<std::size_t>(it - freqs_.begin());
}

Cycles
WcetTable::subtaskCycles(int k, MHz f) const
{
    const std::size_t r = rowOf(f);
    if (k < 0 || k >= numSubtasks_)
        fatal("wcet table: bad sub-task index %d", k);
    return cycles_[r * static_cast<std::size_t>(numSubtasks_) +
                   static_cast<std::size_t>(k)];
}

double
WcetTable::remainingSeconds(int k, MHz f) const
{
    const std::span<const double> r = remainingRow(rowOf(f));
    if (k < 0 || k > numSubtasks_)
        fatal("wcet table: remaining-time index %d outside [0, %d]", k,
              numSubtasks_);
    return r[static_cast<std::size_t>(k)];
}

} // namespace visa
