// Sweep driver: (graphs x algorithms x thread counts) -> measurements.
//
// Every bench binary is a thin wrapper around this, so the measurement
// protocol (shared deterministic sources, engine reuse across sources,
// optional per-run verification) is identical across all tables and
// figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bfs_options.hpp"
#include "graph/workloads.hpp"
#include "harness/timing.hpp"

namespace optibfs {

struct ExperimentConfig {
  std::vector<std::string> algorithms;
  std::vector<int> thread_counts{4};
  int sources = 8;
  std::uint64_t source_seed = 42;
  bool verify = false;
  BFSOptions base_options;  ///< num_threads overridden per sweep point
};

struct ExperimentCell {
  std::string graph;
  std::string algorithm;
  int threads = 0;
  RunMeasurement measurement;
};

/// Runs the full sweep over the given workloads. Sources are sampled
/// once per graph so every algorithm and thread count sees the same
/// set.
std::vector<ExperimentCell> run_experiment(
    const std::vector<Workload>& workloads, const ExperimentConfig& config);

/// Writes a sweep's cells as a machine-readable JSON document:
///   {"bench": "<name>", "summary": <summary_json|{}>, "cells": [
///     {"graph": ..., "algorithm": ..., "threads": N, "sources": K,
///      "mean_ms": ..., "min_ms": ..., "max_ms": ..., "mean_teps": ...,
///      "mean_duplicates": ...}, ...]}
/// `summary_json` must be a pre-rendered JSON value (pass "" to omit).
/// Returns false when the file cannot be written.
bool write_cells_json(const std::string& path, const std::string& bench_name,
                      const std::vector<ExperimentCell>& cells,
                      const std::string& summary_json = {});

/// Environment knobs shared by all benches:
///   OPTIBFS_SOURCES — sources per measurement (default `default_sources`)
///   OPTIBFS_THREADS — max worker threads    (default `default_threads`)
///   OPTIBFS_VERIFY  — 1 = verify every run against the serial oracle
/// A count that is set must be a positive integer: anything else exits
/// 2 with a message instead of silently running another experiment.
int env_sources(int default_sources);
int env_threads(int default_threads);
bool env_verify();

}  // namespace optibfs
