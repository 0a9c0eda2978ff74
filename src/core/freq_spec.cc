#include "core/freq_spec.hh"

#include <vector>

namespace visa
{

namespace
{

/** The misprediction bound a scan checks. */
enum class Bound
{
    Visa,            ///< EQ 4, optionally with a restore term
    Conventional,    ///< EQ 2
};

/**
 * The one pair scan behind every speculation solver: the lowest
 * f_spec, then the lowest f_rec >= f_spec, such that every
 * misprediction point i meets the deadline,
 *
 *   (head_i(f_spec) + ovhd(f_rec)) + tail_i(f_rec) <= deadline.
 *
 * EQ 4: head_i = extra + sum_{j<=i} PET_j and tail_i = remaining(i).
 * EQ 2: head_i = (extra + sum_{j<i} PET_j) + WCET_i and tail_i =
 * remaining(i + 1), and the whole PET schedule must fit as well.
 * Restart recovery adds its restore cost at f_rec to ovhd. Each
 * f_spec's heads are summed once rather than once per pair, but every
 * total keeps the operands and order shown above, so sharing them
 * changes no decision (FreqSpecPin pins the pairs bit for bit). No
 * monotonicity in f is assumed: remaining time can rise with f.
 */
FreqPair
lowestPair(const WcetTable &wcet, const PetEstimator &pet,
           const DvsTable &dvs, double deadline_s, double ovhd_s,
           Cycles extra_cycles, Cycles restore_cycles, Bound bound)
{
    const auto &settings = dvs.settings();
    const int s = wcet.numSubtasks();
    std::vector<const double *> tails;
    tails.reserve(settings.size());
    for (const DvsSetting &st : settings)
        tails.push_back(wcet.remainingRow(wcet.rowOf(st.freq)).data() +
                        (bound == Bound::Conventional ? 1 : 0));
    std::vector<double> head(static_cast<std::size_t>(s));
    for (const DvsSetting &spec : settings) {
        const MHz fs = spec.freq;
        double prefix = static_cast<double>(extra_cycles) / (fs * 1e6);
        for (int i = 0; i < s; ++i) {
            double &h = head[static_cast<std::size_t>(i)];
            if (bound == Bound::Visa) {
                prefix += pet.petSeconds(i, fs);
                h = prefix;
            } else {
                h = prefix + wcet.subtaskSeconds(i, fs);
                prefix += pet.petSeconds(i, fs);
            }
        }
        // EQ 2 also requires the fully speculative schedule to fit,
        // whatever f_rec is.
        if (bound == Bound::Conventional && !(prefix <= deadline_s))
            continue;
        for (std::size_t b = 0; b < settings.size(); ++b) {
            const MHz fr = settings[b].freq;
            if (fr < fs)
                continue;
            // A zero restore adds exactly 0.0: skip its division.
            const double ovhd =
                restore_cycles == 0
                    ? ovhd_s
                    : ovhd_s + static_cast<double>(restore_cycles) /
                                   (fr * 1e6);
            const double *tail = tails[b];
            std::size_t i = 0;
            while (i < head.size() &&
                   !(head[i] + ovhd + tail[i] > deadline_s))
                ++i;
            if (i == head.size())
                return {true, fs, fr};
        }
    }
    return {};
}

} // anonymous namespace

FreqPair
solveVisaSpeculation(const WcetTable &wcet, const PetEstimator &pet,
                     const DvsTable &dvs, double deadline_s,
                     double ovhd_s, Cycles overhead_cycles_at_fspec)
{
    return lowestPair(wcet, pet, dvs, deadline_s, ovhd_s,
                      overhead_cycles_at_fspec, 0, Bound::Visa);
}

FreqPair
solveRestartSpeculation(const WcetTable &wcet, const PetEstimator &pet,
                        const DvsTable &dvs, double deadline_s,
                        double ovhd_s, Cycles overhead_cycles_at_fspec,
                        Cycles restore_cycles)
{
    // EQ 4 with the snapshot-restore overhead folded into the fixed
    // per-recovery term: restore runs at f_rec, so its wall-clock cost
    // depends on the candidate pair and cannot be pre-added to ovhd_s.
    return lowestPair(wcet, pet, dvs, deadline_s, ovhd_s,
                      overhead_cycles_at_fspec, restore_cycles,
                      Bound::Visa);
}

FreqPair
solveConventionalSpeculation(const WcetTable &wcet,
                             const PetEstimator &pet,
                             const DvsTable &dvs, double deadline_s,
                             double ovhd_s,
                             Cycles overhead_cycles_at_fspec)
{
    return lowestPair(wcet, pet, dvs, deadline_s, ovhd_s,
                      overhead_cycles_at_fspec, 0, Bound::Conventional);
}

MHz
solveStaticFrequency(const WcetTable &wcet, const DvsTable &dvs,
                     double deadline_s)
{
    for (const auto &s : dvs.settings())
        if (wcet.taskSeconds(s.freq) <= deadline_s)
            return s.freq;
    return 0;
}

} // namespace visa
