/**
 * @file
 * Sparse tensor scenario: one architecture, three spmspm dataflows.
 *
 * The paper's core flexibility claim: prior accelerators hard-wire a
 * dataflow, while SparseCore picks inner-product, outer-product or
 * Gustavson in software (the kernel-builder parses the TACO-style
 * expression; the algorithm is a runtime choice). This example
 * multiplies a Circuit204-like matrix by itself under all three and
 * validates every result against the dense reference.
 */

#include <cstdio>

#include "api/machine.hh"
#include "backend/functional_backend.hh"
#include "common/table.hh"
#include "kernels/kernel_builder.hh"
#include "tensor/reference_kernels.hh"
#include "tensor/tensor_datasets.hh"

int
main()
{
    using namespace sc;
    using kernels::SpmspmAlgorithm;
    setVerbose(false);

    // The user-facing interface is the expression (§5.3).
    const auto kernel =
        kernels::parseKernel("C(i,j) = A(i,k) * B(k,j)");
    std::printf("expression: C(i,j) = A(i,k) * B(k,j)  "
                "[contraction over '%s']\n",
                kernel.contractedIndex.c_str());

    const tensor::SparseMatrix &a = tensor::loadMatrix("C");
    std::printf("matrix %s: %ux%u, %llu nnz (density %.2f%%)\n\n",
                a.name().c_str(), a.rows(), a.cols(),
                static_cast<unsigned long long>(a.nnz()),
                100.0 * a.density());

    const tensor::SparseMatrix reference =
        tensor::referenceSpmspm(a, a);

    api::Machine machine;
    Table table({"dataflow", "cpu Mcycles", "sc Mcycles", "speedup",
                 "max |err|"});
    for (const auto algorithm :
         {SpmspmAlgorithm::Inner, SpmspmAlgorithm::Outer,
          SpmspmAlgorithm::Gustavson}) {
        // Cycles come from one capture replayed on both substrates;
        // the product from a functional run of the same kernel.
        const auto cmp =
            machine.compare(api::RunRequest::spmspm(a, a, algorithm));
        tensor::SparseMatrix result;
        backend::FunctionalBackend functional;
        kernels::runSpmspm(a, a, algorithm, functional, 1, &result);
        table.addRow({kernels::spmspmAlgorithmName(algorithm),
                      Table::num(cmp.baseline.cycles / 1e6, 2),
                      Table::num(cmp.accelerated.cycles / 1e6, 2),
                      Table::speedup(cmp.speedup()),
                      Table::num(result.maxAbsDiff(reference), 12)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nAll three dataflows run on the same hardware; the "
                "choice is a software decision.\n");
    return 0;
}
