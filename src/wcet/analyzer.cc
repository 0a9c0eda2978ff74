#include "wcet/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "cpu/rig.hh"
#include "cpu/simple_cpu.hh"
#include "cpu/visa_timing.hh"
#include "sim/logging.hh"

namespace visa
{

namespace
{

/** One element of an execution path through a scope. */
struct Step
{
    enum Kind : std::uint8_t { Block, LoopSum, CallSum };
    Kind kind = Block;
    bool redirect = false;   ///< Block: chosen edge pays the 4-cycle
                             ///< static-misprediction penalty
    int id = -1;             ///< Block: basic block id; LoopSum: loop
                             ///< id; CallSum: callee function index

    bool operator==(const Step &) const = default;
};

/**
 * Enumerated paths through one scope (function body, loop body or
 * sub-task region), back to back in DFS order, or — when the scope has
 * more paths than the cap — its members, each timed on its own.
 */
struct ScopePaths
{
    std::vector<Step> steps;
    std::vector<std::uint32_t> ends;      ///< path i: [ends[i-1], ends[i])
    std::vector<std::uint32_t> shared;    ///< leading steps path i
                                          ///< shares with path i-1
    std::vector<std::uint32_t> iterIdx;   ///< loop: backedge-terminated
    std::uint32_t longest = 0;            ///< steps in the longest path
    /**
     * Path cap hit: no paths are kept. @ref steps lists every block of
     * the scope (with its call, if any) and every child loop once, and
     * the scope is bounded by the sum of their drained times.
     */
    bool overflow = false;

    std::size_t size() const { return ends.size(); }
};

/**
 * One instruction lowered for the path evaluator: its FU latency and
 * the timing facts that do not depend on the path or the frequency.
 */
struct InstRec
{
    std::uint8_t latency = 1;
    std::uint8_t flags = 0;
};
static_assert(sizeof(InstRec) == 2);

enum : std::uint8_t
{
    kAlwaysMiss = 1,    ///< I-cache always-miss: pays the stall
    kLoadUse = 2,       ///< depends on the load just before it in-block
    kCondBranch = 4,    ///< block-ending branch: redirect on the
                        ///< step's chosen edge
    kIndirect = 8,      ///< block-ending JR: always redirects fetch
};

/** A basic block's span of lowered records. */
struct LoweredBlock
{
    std::uint32_t first = 0;               ///< index of its first record
    std::uint32_t count = 0;
    const Instruction *head = nullptr;     ///< load-use across blocks
    const Instruction *tailLoad = nullptr; ///< last instruction, if a load
};

/** Everything the analyzer derives for one function. */
struct FuncAnalysis
{
    std::unique_ptr<Cfg> cfg;
    std::unique_ptr<ICacheAnalysis> cache;
    std::vector<InstRec> recs;
    std::vector<LoweredBlock> blocks;     ///< by block id
    std::vector<ScopePaths> loopPaths;    ///< by loop id
    std::vector<int> loopOrder;           ///< loop ids, inner first
    std::size_t loopBase = 0;             ///< first loop's summary slot
    ScopePaths body;                      ///< callees only
};

/** Path enumerator over one scope of one function. */
class Enumerator
{
  public:
    Enumerator(const Cfg &cfg, int scope_loop, std::size_t cap,
               Addr region_lo, Addr region_hi,
               const std::map<Addr, int> &func_index)
        : cfg_(cfg), scope_(scope_loop), cap_(cap),
          regionLo_(region_lo), regionHi_(region_hi),
          funcIndex_(func_index)
    {
    }

    ScopePaths
    run(int entry_block)
    {
        dfs(entry_block);
        if (overflow_) {
            warn("wcet: path cap (%zu) exceeded; bounding this scope by "
                 "its drained members", cap_);
            members();
        }
        return std::move(out_);
    }

  private:
    bool
    inRegion(const BasicBlock &bb) const
    {
        return bb.startPc >= regionLo_ && bb.startPc < regionHi_;
    }

    /** The child loop of this scope containing @p bid, or -1. */
    int
    childLoopOf(int bid) const
    {
        int l = cfg_.loopOf(bid);
        while (l >= 0 && cfg_.loop(l).parent != scope_)
            l = cfg_.loop(l).parent;
        return l;
    }

    /** Region discipline: a summarized loop lies inside the region. */
    void
    checkInRegion(const Loop &cl) const
    {
        if (scope_ >= 0)
            return;
        for (int m : cl.blocks) {
            if (!inRegion(cfg_.block(m)))
                fatal("wcet: loop with header 0x%x straddles a "
                      ".subtask boundary",
                      cfg_.block(cl.header).startPc);
        }
    }

    Step
    callStep(Addr callee) const
    {
        return {.kind = Step::CallSum, .id = funcIndex_.at(callee)};
    }

    void
    emit(bool is_iter)
    {
        if (out_.size() >= cap_) {
            overflow_ = true;
            return;
        }
        const auto n = static_cast<std::uint32_t>(cur_.size());
        // The previous path is steps[prev, steps.size()).
        const std::uint32_t prev =
            out_.size() > 1 ? out_.ends[out_.size() - 2] : 0;
        const auto prev_len =
            static_cast<std::uint32_t>(out_.steps.size()) - prev;
        std::uint32_t shared = 0;
        while (shared < n && shared < prev_len &&
               out_.steps[prev + shared] == cur_[shared])
            ++shared;
        if (is_iter)
            out_.iterIdx.push_back(static_cast<std::uint32_t>(out_.size()));
        out_.steps.insert(out_.steps.end(), cur_.begin(), cur_.end());
        out_.ends.push_back(static_cast<std::uint32_t>(out_.steps.size()));
        out_.shared.push_back(shared);
        out_.longest = std::max(out_.longest, n);
    }

    void
    visitTarget(int succ)
    {
        if (overflow_)
            return;
        if (scope_ >= 0) {
            const Loop &loop = cfg_.loop(scope_);
            if (succ == loop.header) {
                emit(true);     // back edge: one iteration
                return;
            }
            if (!loop.blocks.count(succ)) {
                emit(false);    // loop exit
                return;
            }
        } else if (!inRegion(cfg_.block(succ))) {
            emit(false);        // leaves the region
            return;
        }
        if (cfg_.loopOf(succ) == scope_) {
            dfs(succ);
            return;
        }
        // Entering a child loop; natural loops are entered at the
        // header.
        int child = childLoopOf(succ);
        if (child < 0)
            panic("wcet: block %d in no child loop of scope %d", succ,
                  scope_);
        const Loop &cl = cfg_.loop(child);
        if (succ != cl.header)
            fatal("wcet: loop at block %d entered other than at its "
                  "header", succ);
        checkInRegion(cl);
        const std::size_t mark = cur_.size();
        cur_.push_back({.kind = Step::LoopSum, .id = child});
        // Continue from every exit of the child loop.
        std::set<int> exits;
        for (int m : cl.blocks)
            for (int t : cfg_.block(m).succs)
                if (!cl.blocks.count(t))
                    exits.insert(t);
        if (exits.empty())
            emit(false);    // loop never exits locally
        for (int t : exits)
            visitTarget(t);
        cur_.resize(mark);
    }

    void
    dfs(int bid)
    {
        if (overflow_)
            return;
        const BasicBlock &bb = cfg_.block(bid);
        const std::size_t mark = cur_.size();
        cur_.push_back({.id = bid});
        if (bb.callTarget)
            cur_.push_back(callStep(bb.callTarget));
        const Instruction &last = cfg_.program().at(bb.endPc - 4);
        if (bb.succs.empty()) {
            emit(false);    // halt or return
        } else if (last.isCondBranch()) {
            // succ[0] = taken, succ[1] = fall-through; the static
            // heuristic predicts backward-taken / forward-not-taken.
            std::size_t pred_idx = last.isBackward(bb.endPc - 4) ? 0 : 1;
            for (std::size_t i = 0; i < bb.succs.size(); ++i) {
                cur_[mark].redirect = (i != pred_idx);
                visitTarget(bb.succs[i]);
            }
        } else {
            for (int t : bb.succs)
                visitTarget(t);
        }
        cur_.resize(mark);
    }

    /**
     * Replace the (truncated) paths by the scope's members: every
     * block directly in the scope, under its worse outgoing edge and
     * followed by its call, and every child loop. A path visits each
     * member at most once, and a drained pipeline is the worst state
     * any step can start from, so the members' drained times sum to a
     * bound on every path, enumerated or not.
     */
    void
    members()
    {
        out_ = ScopePaths{};
        out_.overflow = true;
        for (const BasicBlock &bb : cfg_.blocks()) {
            if (scope_ < 0 && !inRegion(bb))
                continue;
            if (cfg_.loopOf(bb.id) == scope_) {
                out_.steps.push_back(
                    {.redirect =
                         cfg_.program().at(bb.endPc - 4).isCondBranch(),
                     .id = bb.id});
                if (bb.callTarget)
                    out_.steps.push_back(callStep(bb.callTarget));
                continue;
            }
            const int child = childLoopOf(bb.id);
            if (child >= 0 && cfg_.loop(child).header == bb.id) {
                checkInRegion(cfg_.loop(child));
                out_.steps.push_back({.kind = Step::LoopSum, .id = child});
            }
        }
    }

    const Cfg &cfg_;
    int scope_;
    std::size_t cap_;
    Addr regionLo_;
    Addr regionHi_;
    const std::map<Addr, int> &funcIndex_;
    std::vector<Step> cur_;    ///< the path being built
    ScopePaths out_;
    bool overflow_ = false;
};

/** The pipeline part-way along a path. */
struct PathState
{
    VisaTimer timer;
    Cycles flushed = 0;                   ///< segments closed by summaries
    const Instruction *load = nullptr;    ///< last instruction, if a load

    Cycles time() const { return flushed + timer.totalCycles(); }
};

} // anonymous namespace

/** Analyzer internals. */
struct WcetAnalyzer::Impl
{
    const Program &prog;
    AnalyzerParams params;
    std::vector<FuncAnalysis> funcs;     ///< callees before callers;
                                         ///< the entry function last
    std::map<Addr, int> funcIndex;       ///< entry address -> funcs index
    std::vector<ScopePaths> subtaskPaths;
    std::vector<std::size_t> subtaskFm;  ///< first-miss blocks per sub-task
    std::size_t numLoops = 0;            ///< over all functions
    int numSubtasks = 1;

    Impl(const Program &p, AnalyzerParams prm)
        : prog(p), params(std::move(prm))
    {
        discoverFunctions();
        buildCacheAnalyses();
        for (FuncAnalysis &fa : funcs)
            lower(fa);
        enumerateAllScopes();
        partitionSubtasks();
    }

    const FuncAnalysis &entryFunc() const { return funcs.back(); }

    void
    discoverFunctions()
    {
        // DFS over the call graph with cycle (recursion) detection.
        std::map<Addr, int> state;    // 0 new, 1 active, 2 done
        std::function<void(Addr)> visit = [&](Addr entry) {
            if (state[entry] == 2)
                return;
            if (state[entry] == 1)
                fatal("wcet: recursion detected at 0x%x (unsupported)",
                      entry);
            state[entry] = 1;
            auto cfg = std::make_unique<Cfg>(prog, entry);
            for (Addr callee : cfg->callTargets())
                visit(callee);
            state[entry] = 2;
            funcIndex[entry] = static_cast<int>(funcs.size());
            funcs.emplace_back().cfg = std::move(cfg);
        };
        visit(prog.entry);
    }

    void
    buildCacheAnalyses()
    {
        std::map<Addr, std::set<Addr>> footprints;
        for (FuncAnalysis &fa : funcs) {
            fa.cache = std::make_unique<ICacheAnalysis>(
                *fa.cfg, params.icache, footprints);
            footprints[fa.cfg->entry()] = fa.cache->footprint();
        }
    }

    /** Lower every basic block of @p fa into InstRecs, once. */
    void
    lower(FuncAnalysis &fa) const
    {
        const Cfg &cfg = *fa.cfg;
        fa.blocks.resize(cfg.blocks().size());
        for (const BasicBlock &bb : cfg.blocks()) {
            LoweredBlock &lb = fa.blocks[static_cast<std::size_t>(bb.id)];
            lb.first = static_cast<std::uint32_t>(fa.recs.size());
            lb.count = static_cast<std::uint32_t>(bb.numInsts());
            lb.head = &prog.at(bb.startPc);
            const Instruction *prev = nullptr;
            for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4) {
                const Instruction &inst = prog.at(pc);
                if (inst.latency() > 0xff)
                    panic("wcet: latency %llu does not fit a record",
                          static_cast<unsigned long long>(inst.latency()));
                InstRec r;
                r.latency = static_cast<std::uint8_t>(inst.latency());
                if (fa.cache->at(pc).cat == CacheCat::AlwaysMiss)
                    r.flags |= kAlwaysMiss;
                if (prev && prev->isLoad() && inst.dependsOn(*prev))
                    r.flags |= kLoadUse;
                if (pc == bb.endPc - 4) {
                    if (inst.isIndirectJump())
                        r.flags |= kIndirect;    // JR return stalls fetch
                    else if (inst.isCondBranch())
                        r.flags |= kCondBranch;
                }
                fa.recs.push_back(r);
                prev = &inst;
            }
            lb.tailLoad = prev->isLoad() ? prev : nullptr;
        }
    }

    void
    enumerateAllScopes()
    {
        for (FuncAnalysis &fa : funcs) {
            const Cfg &cfg = *fa.cfg;
            fa.loopBase = numLoops;
            numLoops += cfg.loops().size();
            std::vector<int> depth;
            for (const Loop &loop : cfg.loops()) {
                Enumerator e(cfg, loop.id, params.maxPaths, 0, ~0u,
                             funcIndex);
                fa.loopPaths.push_back(e.run(loop.header));
                fa.loopOrder.push_back(loop.id);
                int d = 0;
                for (int l = loop.parent; l >= 0; l = cfg.loop(l).parent)
                    ++d;
                depth.push_back(d);
            }
            std::stable_sort(fa.loopOrder.begin(), fa.loopOrder.end(),
                             [&](int a, int b) {
                                 return depth[static_cast<std::size_t>(a)] >
                                        depth[static_cast<std::size_t>(b)];
                             });
            // Nothing calls the entry function (that would be
            // recursion): it is timed per sub-task region instead.
            if (&fa != &funcs.back()) {
                Enumerator e(cfg, -1, params.maxPaths, 0, ~0u, funcIndex);
                fa.body = e.run(cfg.entryBlock());
            }
        }
    }

    void
    partitionSubtasks()
    {
        const FuncAnalysis &fa = entryFunc();
        const Cfg &cfg = *fa.cfg;
        std::vector<std::pair<Addr, int>> markers(
            prog.subtaskStarts.begin(), prog.subtaskStarts.end());
        if (markers.empty()) {
            numSubtasks = 1;
            Enumerator e(cfg, -1, params.maxPaths, 0, ~0u, funcIndex);
            subtaskPaths.push_back(e.run(cfg.entryBlock()));
            subtaskFm.push_back(fa.cache->fmBlocks(-1).size());
            return;
        }
        // Validate: ids 1..s in address order, first marker at entry.
        numSubtasks = static_cast<int>(markers.size());
        for (int i = 0; i < numSubtasks; ++i) {
            if (markers[static_cast<std::size_t>(i)].second != i + 1)
                fatal("wcet: .subtask ids must be 1..%d in address "
                      "order (got %d)", numSubtasks,
                      markers[static_cast<std::size_t>(i)].second);
        }
        if (markers.front().first != prog.entry)
            fatal("wcet: the first .subtask marker must sit at the "
                  "task entry");
        for (int k = 0; k < numSubtasks; ++k) {
            Addr lo = markers[static_cast<std::size_t>(k)].first;
            Addr hi = k + 1 < numSubtasks
                ? markers[static_cast<std::size_t>(k + 1)].first
                : ~0u;
            // Region entry block must start exactly at the marker.
            int entry_block = -1;
            for (const auto &bb : cfg.blocks())
                if (bb.startPc == lo)
                    entry_block = bb.id;
            if (entry_block < 0)
                fatal("wcet: .subtask %d marker 0x%x is not at a basic "
                      "block boundary", k + 1, lo);
            Enumerator e(cfg, -1, params.maxPaths, lo, hi, funcIndex);
            subtaskPaths.push_back(e.run(entry_block));

            // First-miss blocks (task-level persistence) charged to
            // this sub-task: any it can touch.
            std::set<Addr> fm;
            auto collect = [&](const BasicBlock &bb) {
                for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4) {
                    const auto &cat = fa.cache->at(pc);
                    if (cat.cat == CacheCat::FirstMiss &&
                        cat.fmScope == -1) {
                        fm.insert(pc & ~(params.icache.blockBytes - 1));
                    }
                }
            };
            for (const auto &bb : cfg.blocks())
                if (bb.startPc >= lo && bb.startPc < hi)
                    collect(bb);
            subtaskFm.push_back(fm.size());
        }
    }

    // ---- frequency-dependent evaluation ----

    /** Summaries of every loop and callee at one frequency. */
    struct EvalCtx
    {
        Cycles penalty = 100;
        std::vector<Cycles> loopCycles;    ///< [loopBase + loop id]
        std::vector<Cycles> funcCycles;    ///< [function index]
        std::vector<PathState> stack;    ///< forEachPath's prefix states
    };

    Cycles
    penaltyAt(MHz f) const
    {
        auto num = static_cast<Cycles>(params.memStallNs * f);
        return (num + 999) / 1000;
    }

    /**
     * The one stepper: advance @p s over @p step on the VISA pipeline
     * model. A summarized loop or call drains the pipeline and adds
     * its WCET.
     */
    void
    advance(PathState &s, const FuncAnalysis &fa, Step step,
            const EvalCtx &ctx) const
    {
        if (step.kind != Step::Block) {
            const auto id = static_cast<std::size_t>(step.id);
            const Cycles w = step.kind == Step::LoopSum
                                 ? ctx.loopCycles[fa.loopBase + id]
                                 : ctx.funcCycles[id];
            s.flushed += s.timer.totalCycles() + w;
            s.timer.reset();
            s.load = nullptr;
            return;
        }
        const LoweredBlock &lb = fa.blocks[static_cast<std::size_t>(step.id)];
        const InstRec *r = fa.recs.data() + lb.first;
        TimingRecord rec;
        rec.loadUseStall = s.load && lb.head->dependsOn(*s.load);
        for (std::uint32_t i = 0; i < lb.count; ++i) {
            const std::uint8_t fl = r[i].flags;
            rec.exLatency = r[i].latency;
            rec.imissPenalty = fl & kAlwaysMiss ? ctx.penalty : 0;
            if (i > 0)
                rec.loadUseStall = fl & kLoadUse;
            rec.redirect =
                (fl & kIndirect) || ((fl & kCondBranch) && step.redirect);
            s.timer.consume(rec);
        }
        s.load = lb.tailLoad;
    }

    /** Advance @p s over path @p i of @p sp. */
    void
    runPath(PathState &s, const FuncAnalysis &fa, const ScopePaths &sp,
            std::uint32_t i, const EvalCtx &ctx) const
    {
        for (std::uint32_t k = i ? sp.ends[i - 1] : 0; k < sp.ends[i]; ++k)
            advance(s, fa, sp.steps[k], ctx);
    }

    /**
     * Time every path of @p sp continued from @p base, in DFS order,
     * calling visit(i, state at the end of path i). A path re-times
     * only the steps after the prefix it shares with the previous
     * path, from the state kept for that prefix: the same steps through
     * the same recurrence in the same order as timing it whole.
     */
    template <typename Visit>
    void
    forEachPath(const FuncAnalysis &fa, const ScopePaths &sp,
                PathState base, EvalCtx &ctx, Visit &&visit) const
    {
        std::vector<PathState> &stack = ctx.stack;
        if (stack.size() <= sp.longest)
            stack.resize(sp.longest + 1);
        stack[0] = base;
        std::uint32_t begin = 0;
        for (std::uint32_t i = 0; i < sp.size(); ++i) {
            const std::uint32_t len = sp.ends[i] - begin;
            for (std::uint32_t k = sp.shared[i]; k < len; ++k) {
                stack[k + 1] = stack[k];
                advance(stack[k + 1], fa, sp.steps[begin + k], ctx);
            }
            visit(i, stack[len]);
            begin = sp.ends[i];
        }
    }

    /** Max over @p sp's paths of the time from @p base through them. */
    Cycles
    maxFrom(const FuncAnalysis &fa, const ScopePaths &sp,
            const PathState &base, EvalCtx &ctx) const
    {
        Cycles best = 0;
        forEachPath(fa, sp, base, ctx,
                    [&](std::uint32_t, const PathState &s) {
                        best = std::max(best, s.time());
                    });
        return best;
    }

    /** An overflowed scope's bound: its members' drained times. */
    Cycles
    drainedSum(const FuncAnalysis &fa, const ScopePaths &sp,
               const EvalCtx &ctx) const
    {
        Cycles sum = 0;
        for (Step step : sp.steps) {
            PathState s;
            advance(s, fa, step, ctx);
            sum += s.time();
        }
        return sum;
    }

    /** WCET of one scope entry, before first-miss charges. */
    Cycles
    scopeWcet(const FuncAnalysis &fa, const ScopePaths &sp,
              EvalCtx &ctx) const
    {
        return sp.overflow ? drainedSum(fa, sp, ctx)
                           : maxFrom(fa, sp, PathState{}, ctx);
    }

    Cycles
    loopWcet(const FuncAnalysis &fa, int loop_id, EvalCtx &ctx) const
    {
        const ScopePaths &sp = fa.loopPaths[static_cast<std::size_t>(loop_id)];
        const Loop &loop = fa.cfg->loop(loop_id);
        if (!sp.overflow && sp.size() == 0)
            panic("wcet: loop %d has no paths", loop_id);

        Cycles t_first = 0;
        Cycles t_iter = 0;
        if (sp.overflow || sp.size() > params.maxOverlapPaths ||
            sp.iterIdx.empty()) {
            t_first = t_iter = scopeWcet(fa, sp, ctx);    // drain compose
        } else {
            // Healy-style overlap: the steady-state per-iteration
            // increment, max over p of time(q ++ p) - time(q), taken by
            // forking the state after each backedge-terminated path q
            // and continuing it over every path.
            std::vector<PathState> after;
            forEachPath(fa, sp, PathState{}, ctx,
                        [&](std::uint32_t i, const PathState &s) {
                            t_first = std::max(t_first, s.time());
                            if (after.size() < sp.iterIdx.size() &&
                                sp.iterIdx[after.size()] == i)
                                after.push_back(s);
                        });
            for (const PathState &q : after)
                t_iter = std::max(t_iter, maxFrom(fa, sp, q, ctx) - q.time());
            if (sp.size() <= 24) {
                // Depth-2 prefixes sharpen the steady-state estimate.
                for (const PathState &q1 : after) {
                    for (std::uint32_t q2 : sp.iterIdx) {
                        PathState pre = q1;
                        runPath(pre, fa, sp, q2, ctx);
                        t_iter = std::max(
                            t_iter, maxFrom(fa, sp, pre, ctx) - pre.time());
                    }
                }
            }
        }

        Cycles fm = static_cast<Cycles>(
                        fa.cache->fmBlocks(loop_id).size()) *
                    ctx.penalty;
        return t_first + (loop.bound - 1) * (t_iter + params.iterSlack) +
               fm;
    }

    /** Every loop and callee summary at @p f, innermost first. */
    EvalCtx
    evaluate(MHz f) const
    {
        EvalCtx ctx;
        ctx.penalty = penaltyAt(f);
        ctx.loopCycles.resize(numLoops);
        ctx.funcCycles.resize(funcs.size());
        for (std::size_t i = 0; i < funcs.size(); ++i) {
            const FuncAnalysis &fa = funcs[i];
            for (int l : fa.loopOrder)
                ctx.loopCycles[fa.loopBase + static_cast<std::size_t>(l)] =
                    loopWcet(fa, l, ctx);
            if (i + 1 < funcs.size())
                ctx.funcCycles[i] =
                    scopeWcet(fa, fa.body, ctx) +
                    static_cast<Cycles>(fa.cache->fmBlocks(-1).size()) *
                        ctx.penalty;
        }
        return ctx;
    }

    /** Trace-derived D-miss padding of sub-task @p k, in misses. */
    static std::uint64_t
    paddedMisses(const DMissProfile *dmiss, int k)
    {
        if (!dmiss)
            return 0;
        const auto &mpt = dmiss->missesPerSubtask;
        const std::uint64_t misses =
            k < static_cast<int>(mpt.size())
                ? mpt[static_cast<std::size_t>(k)]
                : 0;
        return static_cast<std::uint64_t>(std::ceil(
            static_cast<double>(misses) * dmiss->safetyFactor));
    }

    /**
     * Charge each step of @p steps, timed as one path from a drained
     * pipeline (or, with @p drain_each, each from a drained pipeline):
     * the same stepper as the bound, so the charges sum to it.
     */
    void
    chargeSteps(const FuncAnalysis &fa, const Step *steps, std::size_t n,
                bool drain_each, const EvalCtx &ctx,
                std::vector<WcetCharge> &out) const
    {
        PathState s;
        for (std::size_t k = 0; k < n; ++k) {
            const Step step = steps[k];
            if (drain_each)
                s = PathState{};
            const Cycles before = s.time();
            advance(s, fa, step, ctx);
            WcetCharge c;
            c.cycles = s.time() - before;
            if (step.kind == Step::Block) {
                const BasicBlock &bb = fa.cfg->block(step.id);
                c.startPc = bb.startPc;
                c.endPc = bb.endPc;
            } else if (step.kind == Step::LoopSum) {
                const Loop &loop = fa.cfg->loop(step.id);
                c.kind = WcetCharge::Kind::Loop;
                c.startPc = fa.cfg->block(loop.header).startPc;
                c.count = static_cast<std::uint64_t>(loop.bound);
            } else {
                c.kind = WcetCharge::Kind::Call;
                c.startPc =
                    funcs[static_cast<std::size_t>(step.id)].cfg->entry();
            }
            out.push_back(c);
        }
    }

    WcetAttribution
    attribute(MHz f, const DMissProfile *dmiss) const
    {
        EvalCtx ctx = evaluate(f);
        const FuncAnalysis &fa = entryFunc();
        WcetAttribution out;
        out.frequency = f;
        for (int k = 0; k < numSubtasks; ++k) {
            const auto ki = static_cast<std::size_t>(k);
            const ScopePaths &sp = subtaskPaths[ki];
            std::vector<WcetCharge> charges;
            if (sp.overflow) {
                chargeSteps(fa, sp.steps.data(), sp.steps.size(), true,
                            ctx, charges);
            } else if (sp.size() > 0) {
                // The argmax path re-derived with the same stepper;
                // any tie resolves to the first best path, whose time
                // *is* the bound either way.
                Cycles best = 0;
                std::uint32_t bi = 0;
                forEachPath(fa, sp, PathState{}, ctx,
                            [&](std::uint32_t i, const PathState &s) {
                                if (s.time() > best) {
                                    best = s.time();
                                    bi = i;
                                }
                            });
                const std::uint32_t begin = bi ? sp.ends[bi - 1] : 0;
                chargeSteps(fa, sp.steps.data() + begin,
                            sp.ends[bi] - begin, false, ctx, charges);
            }
            if (subtaskFm[ki] > 0) {
                WcetCharge c;
                c.kind = WcetCharge::Kind::FirstMiss;
                c.count = subtaskFm[ki];
                c.cycles = static_cast<Cycles>(subtaskFm[ki]) * ctx.penalty;
                charges.push_back(c);
            }
            if (const std::uint64_t padded = paddedMisses(dmiss, k)) {
                WcetCharge c;
                c.kind = WcetCharge::Kind::DMissPad;
                c.count = padded;
                c.cycles = static_cast<Cycles>(padded) * ctx.penalty;
                charges.push_back(c);
            }
            out.subtaskCharges.push_back(std::move(charges));
        }
        return out;
    }

    WcetReport
    analyze(MHz f, const DMissProfile *dmiss) const
    {
        EvalCtx ctx = evaluate(f);
        const FuncAnalysis &fa = entryFunc();
        WcetReport report;
        report.frequency = f;
        for (int k = 0; k < numSubtasks; ++k) {
            const auto ki = static_cast<std::size_t>(k);
            Cycles w = scopeWcet(fa, subtaskPaths[ki], ctx);
            w += static_cast<Cycles>(subtaskFm[ki]) * ctx.penalty;
            w += static_cast<Cycles>(paddedMisses(dmiss, k)) * ctx.penalty;
            report.subtaskCycles.push_back(w);
            report.taskCycles += w;
        }
        return report;
    }
};

WcetAnalyzer::WcetAnalyzer(const Program &prog, AnalyzerParams params)
    : impl_(std::make_unique<Impl>(prog, std::move(params)))
{
}

WcetAnalyzer::~WcetAnalyzer() = default;

WcetReport
WcetAnalyzer::analyze(MHz f, const DMissProfile *dmiss) const
{
    return impl_->analyze(f, dmiss);
}

WcetAttribution
WcetAnalyzer::attribute(MHz f, const DMissProfile *dmiss) const
{
    return impl_->attribute(f, dmiss);
}

const char *
wcetChargeKindName(WcetCharge::Kind kind)
{
    switch (kind) {
      case WcetCharge::Kind::Block:
        return "block";
      case WcetCharge::Kind::Loop:
        return "loop";
      case WcetCharge::Kind::Call:
        return "call";
      case WcetCharge::Kind::FirstMiss:
        return "first_miss";
      case WcetCharge::Kind::DMissPad:
        return "dmiss_pad";
    }
    return "?";
}

int
WcetAnalyzer::numSubtasks() const
{
    return impl_->numSubtasks;
}

const Cfg &
WcetAnalyzer::mainCfg() const
{
    return *impl_->entryFunc().cfg;
}

const ICacheAnalysis &
WcetAnalyzer::mainCache() const
{
    return *impl_->entryFunc().cache;
}

Cycles
WcetAnalyzer::missPenalty(MHz f) const
{
    return impl_->penaltyAt(f);
}

DMissProfile
profileDataMisses(const Program &prog, double safety_factor)
{
    Rig rig(prog);
    SimpleCpu &cpu = rig.build<SimpleCpu>();

    int subtasks = 1;
    if (!prog.subtaskStarts.empty()) {
        subtasks = 0;
        for (const auto &[addr, id] : prog.subtaskStarts)
            subtasks = std::max(subtasks, id);
    }
    DMissProfile out;
    out.safetyFactor = safety_factor;
    out.missesPerSubtask.assign(static_cast<std::size_t>(subtasks), 0);

    std::uint64_t last = 0;
    int cur = 0;
    rig.platform().onSubtaskBegin = [&](int s) {
        std::uint64_t m = cpu.dcache().misses();
        out.missesPerSubtask[static_cast<std::size_t>(cur)] += m - last;
        last = m;
        cur = s - 1;
    };
    auto res = cpu.run(2'000'000'000ULL);
    if (res.reason != StopReason::Halted)
        fatal("profileDataMisses: program did not halt");
    out.missesPerSubtask[static_cast<std::size_t>(cur)] +=
        cpu.dcache().misses() - last;
    return out;
}

} // namespace visa
