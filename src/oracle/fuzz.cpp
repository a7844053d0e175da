#include "oracle/fuzz.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/notation.hpp"
#include "core/validate.hpp"
#include "oracle/oracle.hpp"

namespace tileflow {

namespace {

/** Upper bound on the interpreter steps of a generated case; keeps the
 *  500-case suite in the seconds range. */
constexpr int64_t kMaxStepCost = 50000;

struct LoopSpec
{
    std::string dim;
    int64_t extent = 1;
    bool spatial = false;
};

/** Render a tile's loop list, dropping most extent-1 loops and
 *  shuffling the order (loop order is semantically relevant). */
std::string
loopsStr(Rng& rng, std::vector<LoopSpec> loops)
{
    std::vector<LoopSpec> kept;
    for (const LoopSpec& loop : loops) {
        if (loop.extent > 1 || rng.flip(0.25))
            kept.push_back(loop);
    }
    for (size_t i = kept.size(); i > 1; --i)
        std::swap(kept[i - 1], kept[rng.index(i)]);
    std::string out;
    for (size_t i = 0; i < kept.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += concat(kept[i].dim, ":", kept[i].spatial ? "s" : "t",
                      kept[i].extent);
    }
    return out;
}

std::vector<std::vector<AccessTerm>>
proj(std::vector<std::vector<AccessTerm>> terms)
{
    return terms;
}

TensorAccess
readAcc(TensorId tensor, std::vector<std::vector<AccessTerm>> projection)
{
    TensorAccess acc;
    acc.tensor = tensor;
    acc.projection = std::move(projection);
    return acc;
}

TensorAccess
writeAcc(TensorId tensor, std::vector<std::vector<AccessTerm>> projection,
         bool update)
{
    TensorAccess acc;
    acc.tensor = tensor;
    acc.isWrite = true;
    acc.isUpdate = update;
    acc.projection = std::move(projection);
    return acc;
}

/** Random per-level tiling factors whose product becomes the extent. */
struct Split
{
    int64_t l2 = 1;
    int64_t l1 = 1;
    int64_t l0 = 1;

    int64_t total() const { return l2 * l1 * l0; }
};

Split
randomSplit(Rng& rng, int64_t max_factor)
{
    Split s;
    s.l2 = rng.uniformInt(1, max_factor);
    s.l1 = rng.uniformInt(1, max_factor);
    s.l0 = rng.uniformInt(1, max_factor);
    return s;
}

bool
randomSpatial(Rng& rng, int level)
{
    if (level == 0)
        return rng.flip(0.35);
    if (level == 1)
        return rng.flip(0.2);
    return false;
}

/** Single operator over randomly split dims in a 2- or 3-tile chain. */
FuzzCase
genSingleOp(Rng& rng, int kind)
{
    auto wl = std::make_unique<Workload>("fuzz_single");
    std::string op_name;
    std::vector<std::string> dim_names;
    std::vector<Split> splits;

    const bool with_l1 = rng.flip(0.75);
    auto add_dim = [&](const std::string& name, Split s) {
        if (!with_l1) {
            s.l0 *= s.l1;
            s.l1 = 1;
        }
        dim_names.push_back(name);
        splits.push_back(s);
        return wl->addDim(name, s.total());
    };

    if (kind == 0) {
        // C[i,j] += A[i,k] * B[k,j]
        op_name = "mm";
        const DimId i = add_dim("i", randomSplit(rng, 3));
        const DimId j = add_dim("j", randomSplit(rng, 3));
        const DimId k = add_dim("k", randomSplit(rng, 3));
        const int64_t ie = wl->dim(i).extent;
        const int64_t je = wl->dim(j).extent;
        const int64_t ke = wl->dim(k).extent;
        const TensorId A = wl->addTensor(Tensor{"A", {ie, ke}});
        const TensorId B = wl->addTensor(Tensor{"B", {ke, je}});
        const TensorId C = wl->addTensor(Tensor{"C", {ie, je}});
        Operator op(op_name, ComputeKind::Matrix);
        op.addDim(i, false);
        op.addDim(j, false);
        op.addDim(k, true);
        op.addAccess(readAcc(A, proj({{{i, 1}}, {{k, 1}}})));
        op.addAccess(readAcc(B, proj({{{k, 1}}, {{j, 1}}})));
        op.addAccess(writeAcc(C, proj({{{i, 1}}, {{j, 1}}}), true));
        wl->addOp(std::move(op));
    } else if (kind == 1) {
        // Y[i,j] = f(X[i,j])
        op_name = "ew";
        const DimId i = add_dim("i", randomSplit(rng, 3));
        const DimId j = add_dim("j", randomSplit(rng, 3));
        const int64_t ie = wl->dim(i).extent;
        const int64_t je = wl->dim(j).extent;
        const TensorId X = wl->addTensor(Tensor{"X", {ie, je}});
        const TensorId Y = wl->addTensor(Tensor{"Y", {ie, je}});
        Operator op(op_name, ComputeKind::Vector);
        op.addDim(i, false);
        op.addDim(j, false);
        op.addAccess(readAcc(X, proj({{{i, 1}}, {{j, 1}}})));
        op.addAccess(writeAcc(Y, proj({{{i, 1}}, {{j, 1}}}), false));
        wl->addOp(std::move(op));
    } else {
        // Out[p] += In[p+r] * W[r] (two-term halo access)
        op_name = "cv";
        const DimId p = add_dim("p", randomSplit(rng, 3));
        Split rs;
        rs.l0 = rng.uniformInt(2, 3);
        const DimId r = add_dim("r", rs);
        const int64_t pe = wl->dim(p).extent;
        const int64_t re = wl->dim(r).extent;
        const TensorId In = wl->addTensor(Tensor{"In", {pe + re - 1}});
        const TensorId W = wl->addTensor(Tensor{"W", {re}});
        const TensorId Out = wl->addTensor(Tensor{"Out", {pe}});
        Operator op(op_name, ComputeKind::Matrix);
        op.addDim(p, false);
        op.addDim(r, true);
        op.addAccess(readAcc(In, proj({{{p, 1}, {r, 1}}})));
        op.addAccess(readAcc(W, proj({{{r, 1}}})));
        op.addAccess(writeAcc(Out, proj({{{p, 1}}}), true));
        wl->addOp(std::move(op));
    }

    std::vector<LoopSpec> l2, l1, l0;
    for (size_t d = 0; d < dim_names.size(); ++d) {
        l2.push_back(LoopSpec{dim_names[d], splits[d].l2, false});
        l1.push_back(LoopSpec{dim_names[d], splits[d].l1,
                              splits[d].l1 > 1 && randomSpatial(rng, 1)});
        l0.push_back(LoopSpec{dim_names[d], splits[d].l0,
                              splits[d].l0 > 1 && randomSpatial(rng, 0)});
    }

    std::string text;
    if (with_l1) {
        text = concat("tile @L2 [", loopsStr(rng, l2), "] { tile @L1 [",
                      loopsStr(rng, l1), "] { tile @L0 [",
                      loopsStr(rng, l0), "] { op ", op_name, " } } }");
    } else {
        text = concat("tile @L2 [", loopsStr(rng, l2),
                      "] { tile @L0 [", loopsStr(rng, l0), "] { op ",
                      op_name, " } }");
    }

    FuzzCase out;
    out.workload = std::move(wl);
    out.tree = std::make_unique<AnalysisTree>(
        parseNotation(*out.workload, text));
    out.summary = concat("single(", op_name, "): ", text);
    out.kind = kind;
    return out;
}

/** Two fused elementwise ops X -> T -> Y under a root Seq/Shar scope. */
FuzzCase
genFusedElementwise(Rng& rng)
{
    auto wl = std::make_unique<Workload>("fuzz_ewchain");
    const Split si = randomSplit(rng, 3);
    const Split sj = randomSplit(rng, 3);
    const DimId i = wl->addDim("i", si.total());
    const DimId j = wl->addDim("j", sj.total());
    const int64_t ie = si.total();
    const int64_t je = sj.total();
    const TensorId X = wl->addTensor(Tensor{"X", {ie, je}});
    const TensorId T = wl->addTensor(Tensor{"T", {ie, je}});
    const TensorId Y = wl->addTensor(Tensor{"Y", {ie, je}});

    Operator p("produce", ComputeKind::Vector);
    p.addDim(i, false);
    p.addDim(j, false);
    p.addAccess(readAcc(X, proj({{{i, 1}}, {{j, 1}}})));
    p.addAccess(writeAcc(T, proj({{{i, 1}}, {{j, 1}}}), false));
    wl->addOp(std::move(p));

    Operator c("consume", ComputeKind::Vector);
    c.addDim(i, false);
    c.addDim(j, false);
    c.addAccess(readAcc(T, proj({{{i, 1}}, {{j, 1}}})));
    c.addAccess(writeAcc(Y, proj({{{i, 1}}, {{j, 1}}}), false));
    wl->addOp(std::move(c));

    const char* binding = rng.flip(0.5) ? "seq" : "shar";
    auto branch = [&](const char* op_name) {
        std::vector<LoopSpec> bl1{LoopSpec{"i", si.l1, false},
                                  LoopSpec{"j", sj.l1, false}};
        std::vector<LoopSpec> bl0{
            LoopSpec{"i", si.l0, si.l0 > 1 && randomSpatial(rng, 0)},
            LoopSpec{"j", sj.l0, false}};
        return concat("tile @L1 [", loopsStr(rng, bl1),
                      "] { tile @L0 [", loopsStr(rng, bl0), "] { op ",
                      op_name, " } }");
    };
    std::vector<LoopSpec> root{LoopSpec{"i", si.l2, false},
                               LoopSpec{"j", sj.l2, false}};
    const std::string text =
        concat("tile @L2 [", loopsStr(rng, root), "] { ", binding, " { ",
               branch("produce"), " ", branch("consume"), " } }");

    FuzzCase out;
    out.workload = std::move(wl);
    out.tree = std::make_unique<AnalysisTree>(
        parseNotation(*out.workload, text));
    out.summary = concat("ewchain(", binding, "): ", text);
    out.kind = 3;
    return out;
}

/** Fused matmul + exp: S = Q x K then E = exp(S). */
FuzzCase
genMatmulExp(Rng& rng)
{
    auto wl = std::make_unique<Workload>("fuzz_mmexp");
    const Split si = randomSplit(rng, 3);
    const Split sj = randomSplit(rng, 3);
    Split sk;
    sk.l1 = rng.uniformInt(1, 3);
    sk.l0 = rng.uniformInt(1, 3);
    const DimId i = wl->addDim("i", si.total());
    const DimId j = wl->addDim("j", sj.total());
    const DimId k = wl->addDim("k", sk.total());
    const int64_t ie = si.total();
    const int64_t je = sj.total();
    const int64_t ke = sk.total();
    const TensorId Q = wl->addTensor(Tensor{"Q", {ie, ke}});
    const TensorId K = wl->addTensor(Tensor{"K", {ke, je}});
    const TensorId S = wl->addTensor(Tensor{"S", {ie, je}});
    const TensorId E = wl->addTensor(Tensor{"E", {ie, je}});

    Operator mm("mm", ComputeKind::Matrix);
    mm.addDim(i, false);
    mm.addDim(j, false);
    mm.addDim(k, true);
    mm.addAccess(readAcc(Q, proj({{{i, 1}}, {{k, 1}}})));
    mm.addAccess(readAcc(K, proj({{{k, 1}}, {{j, 1}}})));
    mm.addAccess(writeAcc(S, proj({{{i, 1}}, {{j, 1}}}), true));
    wl->addOp(std::move(mm));

    Operator ex("ex", ComputeKind::Vector);
    ex.addDim(i, false);
    ex.addDim(j, false);
    ex.addAccess(readAcc(S, proj({{{i, 1}}, {{j, 1}}})));
    ex.addAccess(writeAcc(E, proj({{{i, 1}}, {{j, 1}}}), false));
    wl->addOp(std::move(ex));

    const char* binding = rng.flip(0.5) ? "seq" : "shar";
    std::vector<LoopSpec> root{LoopSpec{"i", si.l2, false},
                               LoopSpec{"j", sj.l2, false}};
    std::vector<LoopSpec> p1{LoopSpec{"i", si.l1, false},
                             LoopSpec{"j", sj.l1, false},
                             LoopSpec{"k", sk.l1, false}};
    std::vector<LoopSpec> p0{LoopSpec{"i", si.l0, false},
                             LoopSpec{"j", sj.l0, false},
                             LoopSpec{"k", sk.l0,
                                      sk.l0 > 1 && randomSpatial(rng, 0)}};
    std::vector<LoopSpec> c1{LoopSpec{"i", si.l1, false},
                             LoopSpec{"j", sj.l1, false}};
    std::vector<LoopSpec> c0{LoopSpec{"i", si.l0, false},
                             LoopSpec{"j", sj.l0, false}};
    const std::string text = concat(
        "tile @L2 [", loopsStr(rng, root), "] { ", binding,
        " { tile @L1 [", loopsStr(rng, p1), "] { tile @L0 [",
        loopsStr(rng, p0), "] { op mm } } tile @L1 [", loopsStr(rng, c1),
        "] { tile @L0 [", loopsStr(rng, c0), "] { op ex } } } }");

    FuzzCase out;
    out.workload = std::move(wl);
    out.tree = std::make_unique<AnalysisTree>(
        parseNotation(*out.workload, text));
    out.summary = concat("mmexp(", binding, "): ", text);
    out.kind = 4;
    return out;
}

/**
 * Seq triple with a halo reader: op `mk` writes T, op `rd` reads T
 * through a shifted window, op `by` does not touch T at all. Each root
 * step the reader takes T's dirty resident over with a DIFFERENT slice
 * and the bystander then displaces it — the scenario of the lost
 * write-back fix in the data-movement analyzer.
 */
FuzzCase
genSeqHaloTriple(Rng& rng)
{
    auto wl = std::make_unique<Workload>("fuzz_halo");
    const int64_t fr = rng.uniformInt(2, 3); // root temporal i factor
    const int64_t fb = rng.uniformInt(1, 3); // leaf i factor
    const int64_t re = rng.uniformInt(2, 3);
    const int64_t ie = fr * fb;
    const int64_t pe = ie + re - 1;
    const DimId i = wl->addDim("i", ie);
    const DimId r = wl->addDim("r", re);
    const DimId p = wl->addDim("p", pe);
    const TensorId In = wl->addTensor(Tensor{"In", {pe}});
    const TensorId T = wl->addTensor(Tensor{"T", {pe}});
    const TensorId K = wl->addTensor(Tensor{"K", {re}});
    const TensorId Out = wl->addTensor(Tensor{"Out", {ie}});
    const TensorId U = wl->addTensor(Tensor{"U", {ie}});
    const TensorId Z = wl->addTensor(Tensor{"Z", {ie}});

    Operator mk("mk", ComputeKind::Vector);
    mk.addDim(p, false);
    mk.addAccess(readAcc(In, proj({{{p, 1}}})));
    mk.addAccess(writeAcc(T, proj({{{p, 1}}}), false));
    wl->addOp(std::move(mk));

    Operator rd("rd", ComputeKind::Vector);
    rd.addDim(i, false);
    rd.addDim(r, true);
    rd.addAccess(readAcc(T, proj({{{i, 1}, {r, 1}}})));
    rd.addAccess(readAcc(K, proj({{{r, 1}}})));
    rd.addAccess(writeAcc(Out, proj({{{i, 1}}}), true));
    wl->addOp(std::move(rd));

    Operator by("by", ComputeKind::Vector);
    by.addDim(i, false);
    by.addAccess(readAcc(U, proj({{{i, 1}}})));
    by.addAccess(writeAcc(Z, proj({{{i, 1}}}), false));
    wl->addOp(std::move(by));

    const std::string text = concat(
        "tile @L2 [i:t", fr, "] { seq {",
        " tile @L1 [] { tile @L0 [p:t", pe, "] { op mk } }",
        " tile @L1 [] { tile @L0 [i:t", fb, ", r:t", re,
        "] { op rd } }",
        " tile @L1 [] { tile @L0 [i:t", fb, "] { op by } } } }");

    FuzzCase out;
    out.workload = std::move(wl);
    out.tree = std::make_unique<AnalysisTree>(
        parseNotation(*out.workload, text));
    out.summary = concat("halo-triple: ", text);
    out.kind = 5;
    return out;
}

/** Two ops sharing one input, one reading it transposed — their zero
 *  step slices overlap in an L shape, so a bounding-box footprint
 *  over-bills the staged bytes (the resource-analysis fix). */
FuzzCase
genTransposedShare(Rng& rng)
{
    auto wl = std::make_unique<Workload>("fuzz_transpose");
    const int64_t e = rng.uniformInt(2, 4);
    const DimId i = wl->addDim("i", e);
    const DimId j = wl->addDim("j", e);
    const TensorId X = wl->addTensor(Tensor{"X", {e, e}});
    const TensorId YA = wl->addTensor(Tensor{"YA", {e, e}});
    const TensorId YB = wl->addTensor(Tensor{"YB", {e, e}});

    Operator a("fa", ComputeKind::Vector);
    a.addDim(i, false);
    a.addDim(j, false);
    a.addAccess(readAcc(X, proj({{{i, 1}}, {{j, 1}}})));
    a.addAccess(writeAcc(YA, proj({{{i, 1}}, {{j, 1}}}), false));
    wl->addOp(std::move(a));

    Operator b("fb", ComputeKind::Vector);
    b.addDim(i, false);
    b.addDim(j, false);
    b.addAccess(readAcc(X, proj({{{j, 1}}, {{i, 1}}})));
    b.addAccess(writeAcc(YB, proj({{{i, 1}}, {{j, 1}}}), false));
    wl->addOp(std::move(b));

    const char* binding = rng.flip(0.5) ? "seq" : "pipe";
    const std::string text = concat(
        "tile @L2 [j:t", e, "] { tile @L1 [] { ", binding,
        " { tile @L0 [i:t", e, "] { op fa } tile @L0 [i:t", e,
        "] { op fb } } } }");

    FuzzCase out;
    out.workload = std::move(wl);
    out.tree = std::make_unique<AnalysisTree>(
        parseNotation(*out.workload, text));
    out.summary = concat("transpose-share(", binding, "): ", text);
    out.kind = 6;
    return out;
}

FuzzCase
generate(Rng& rng)
{
    const int kind = int(rng.uniformInt(0, 6));
    switch (kind) {
    case 0:
    case 1:
    case 2:
        return genSingleOp(rng, kind);
    case 3:
        return genFusedElementwise(rng);
    case 4:
        return genMatmulExp(rng);
    case 5:
        return genSeqHaloTriple(rng);
    default:
        return genTransposedShare(rng);
    }
}

} // namespace

FuzzCase
makeFuzzCase(uint64_t seed, uint64_t index)
{
    for (uint64_t attempt = 0; attempt < 64; ++attempt) {
        Rng rng(mixSeed(seed, attempt, index));
        FuzzCase out;
        try {
            out = generate(rng);
        } catch (const FatalError&) {
            continue; // degenerate draw; retry with the next sub-seed
        }
        if (!validationErrors(*out.tree).empty())
            continue;
        if (ConcreteOracle::stepCost(*out.tree) > kMaxStepCost)
            continue;
        return out;
    }
    fatal("makeFuzzCase: no valid case for seed ", seed, " index ",
          index);
    return FuzzCase{}; // unreachable
}

} // namespace tileflow
