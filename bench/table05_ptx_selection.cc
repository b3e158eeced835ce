/**
 * @file
 * Table V: profiling-driven PTX branch selection per kernel per
 * parameter set on the RTX 4090 (block size 1024). A check mark means
 * the PTX branch outperformed native in the model's profiling pass.
 */

#include "bench_util.hh"

using namespace herosign;
using namespace herosign::bench;
using core::EngineConfig;
using sphincs::Params;

int
main(int argc, char **argv)
{
    Options o = Options::parse(argc, argv);
    EngineCache cache;
    const auto dev = gpu::DeviceProps::rtx4090();

    struct PaperRow
    {
        const Params *p;
        const char *fors, *tree, *wots;
    };
    const PaperRow paper[] = {
        {&Params::sphincs128f(), "PTX", "native", "native"},
        {&Params::sphincs192f(), "PTX", "native", "native"},
        {&Params::sphincs256f(), "PTX", "PTX", "PTX"},
    };

    auto mark = [](core::Sha256Variant v) {
        return v == core::Sha256Variant::Ptx ? std::string("PTX")
                                             : std::string("native");
    };

    TextTable t({"Set", "FORS_Sign", "TREE_Sign", "WOTS+_Sign",
                 "paper FORS", "paper TREE", "paper WOTS+"});
    for (const auto &row : paper) {
        auto &engine = cache.get(*row.p, dev, EngineConfig::hero());
        const auto &ks = engine.kernels();
        t.addRow({row.p->name, mark(ks[0].variant), mark(ks[1].variant),
                  mark(ks[2].variant), row.fors, row.tree, row.wots});
    }
    emit(o, "Table V: PTX branch selection (RTX 4090, block = 1024)",
         t,
         "Selection is profiling-driven; the pattern emerges from "
         "register pressure vs per-hash instruction cost.");
    return 0;
}
