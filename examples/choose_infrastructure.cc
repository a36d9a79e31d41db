/**
 * @file
 * Using the guidelines engine (paper §8) to pick a measurement
 * configuration for a concrete analysis task: the engine runs a
 * calibration study on the simulated platform and ranks every
 * admissible (interface, pattern, TSC) combination by measured
 * error.
 */

#include <iostream>

#include "core/guidelines.hh"
#include "obs/env.hh"

int
main()
{
    using namespace pca;
    using core::GuidelineQuery;
    using core::Guidelines;

    obs::initObservabilityFromEnv();
    Guidelines engine(/*calibration_runs=*/9, /*seed=*/20260705);

    // Task: count user-mode instructions of short code sections on
    // an Athlon, no portability constraints.
    GuidelineQuery q;
    q.processor = cpu::Processor::AthlonX2;
    q.mode = harness::CountingMode::User;
    q.countersNeeded = 2; // instructions + branches
    q.shortSections = true;

    std::cout << "Task: user-mode instruction+branch counts of "
                 "short sections on K8\n\n";
    engine.recommend(q).print(std::cout);

    // Same task, but the tooling must stay portable (PAPI).
    q.requirePapi = true;
    std::cout << "\nSame task, restricted to PAPI for "
                 "portability:\n\n";
    engine.recommend(q).print(std::cout);
    return 0;
}
