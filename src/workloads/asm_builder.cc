#include "workloads/asm_builder.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "isa/isa.hh"
#include "sim/logging.hh"

namespace visa
{

using Op = AsmOperand;

void
AsmBuilder::ins(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    src_ += "        ";
    src_ += buf;
    src_ += '\n';
    ++lines_;
    freeForm_ = true;
}

void
AsmBuilder::operand(const AsmOperand &op)
{
    RecordedOperand r{op, static_cast<std::uint32_t>(src_.size()),
                      static_cast<std::uint32_t>(op.text.size())};
    r.op.text = {};
    appendOperand(src_, op);
    ops_.push_back(r);
}

void
AsmBuilder::inst(std::string_view head, std::span<const AsmOperand> ops)
{
    stmts_.push_back({head, static_cast<std::uint32_t>(ops_.size()),
                      static_cast<std::uint32_t>(ops.size()), ++lines_});
    src_ += "        ";
    src_ += head;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        src_ += k == 0 ? " " : ", ";
        operand(ops[k]);
    }
    src_ += '\n';
}

void
AsmBuilder::label(std::string_view name)
{
    stmts_.push_back({{}, static_cast<std::uint32_t>(ops_.size()), 1,
                      ++lines_});
    operand(Op::sym(name));
    src_ += ":\n";
}

void
AsmBuilder::subtaskBegin(int i)
{
    const Op at = Op::intReg(reg::at);
    const Op r25 = Op::intReg(25);
    const Op r25mem = Op::mem(0, 25);
    inst(".subtask", {Op::imm(i)});
    if (i > 1) {
        inst("li", {r25, Op::hexImm(mmio::cycleCounter)});
        inst("lw", {at, r25mem});
        inst("li", {r25, Op::hexImm(mmio::aetReport)});
        inst("sw", {at, r25mem});    // attributed to sub-task i-1
    }
    inst("li", {r25, Op::hexImm(mmio::subtaskId)});
    inst("li", {at, Op::imm(i)});
    inst("sw", {at, r25mem});
    inst("li", {r25, Op::hexImm(mmio::cycleCounter)});
    inst("sw", {Op::intReg(reg::zero), r25mem});
    inst("la", {r25, Op::sym("wdinc")});
    inst("lw", {at, Op::mem(4 * (i - 1), 25)});
    inst("li", {r25, Op::hexImm(mmio::watchdog)});
    inst("sw", {at, r25mem});
    numSubtasks_ = std::max(numSubtasks_, i);
}

void
AsmBuilder::taskEnd(int ck_reg)
{
    const Op at = Op::intReg(reg::at);
    const Op r25 = Op::intReg(25);
    const Op r25mem = Op::mem(0, 25);
    inst("li", {r25, Op::hexImm(mmio::cycleCounter)});
    inst("lw", {at, r25mem});
    inst("li", {r25, Op::hexImm(mmio::aetReport)});
    inst("sw", {at, r25mem});
    inst("li", {r25, Op::hexImm(mmio::checksum)});
    inst("sw", {Op::intReg(ck_reg), r25mem});
    inst("halt");
}

void
AsmBuilder::words(std::string_view name, const std::vector<std::int32_t> &vals)
{
    label(name);
    Op line[8];
    for (std::size_t i = 0; i < vals.size(); i += 8) {
        const std::size_t n = std::min<std::size_t>(8, vals.size() - i);
        for (std::size_t j = 0; j < n; ++j)
            line[j] = Op::imm(vals[i + j]);
        inst(".word", {line, n});
    }
}

void
AsmBuilder::doubles(std::string_view name, const std::vector<double> &vals)
{
    label(name);
    for (std::size_t i = 0; i < vals.size(); i += 4) {
        std::string line = "        .double ";
        for (std::size_t j = i; j < std::min(i + 4, vals.size()); ++j) {
            if (j > i)
                line += ", ";
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.17g", vals[j]);
            line += buf;
        }
        src_ += line + "\n";
        ++lines_;
        freeForm_ = true;
    }
}

void
AsmBuilder::space(std::string_view name, std::size_t bytes)
{
    label(name);
    inst(".space", {Op::imm(static_cast<std::int64_t>(bytes))});
}

const std::string &
AsmBuilder::finish()
{
    label("wdinc");
    inst(".space", {Op::imm(4 * std::max(numSubtasks_, 1))});
    return src_;
}

Program
AsmBuilder::program() const
{
    if (freeForm_)
        fatal("AsmBuilder: a free-form line was emitted; assemble() the "
              "source instead");
    const std::string_view src = src_;
    std::vector<AsmOperand> ops;
    ops.reserve(ops_.size());
    for (const RecordedOperand &r : ops_) {
        ops.push_back(r.op);
        ops.back().text = src.substr(r.at, r.len);
    }
    AsmBackend be(defaultTextBase, defaultDataBase);
    for (const Statement &s : stmts_) {
        be.setLine(s.line);
        const std::span<const AsmOperand> args(ops.data() + s.firstOp,
                                               s.numOps);
        if (s.head.empty())
            be.label(args[0].text);
        else
            be.statement(s.head, args);
    }
    return be.finish();
}

} // namespace visa
