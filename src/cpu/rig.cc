#include "cpu/rig.hh"

namespace visa
{

Rig::Rig(const Program &prog) : prog_(prog)
{
    mem_.loadProgram(prog);
}

void
Rig::configure(std::optional<bool> blockCache, bool simpleMode, MHz freq)
{
    if (blockCache)
        cpu_->execCore().setBlockCacheEnabled(*blockCache);
    cpu_->resetForTask();
    if (simpleMode)
        ooo().switchToSimple();
    if (freq)
        cpu_->setFrequency(freq);
}

OooCpu &
Rig::ooo()
{
    if (!ooo_)
        fatal("Rig: the machine was not built with the OOO pipeline");
    return *ooo_;
}

SimpleCpu &
Rig::simple()
{
    if (!simple_)
        fatal("Rig: the machine was not built with the simple-fixed "
              "pipeline");
    return *simple_;
}

} // namespace visa
