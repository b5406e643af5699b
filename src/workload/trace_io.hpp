/**
 * @file
 * Trace persistence: CSV import/export of workload traces.
 *
 * The synthetic generators match the paper's Table 2 statistics, but a
 * user with access to the real ShareGPT/LongBench dumps (or production
 * traces) can tokenize them offline into this simple CSV schema and
 * replay them through any serving system:
 *
 *     arrival_time,prompt_tokens,output_tokens
 *     0.125,692,87
 *     ...
 *
 * A header row (first field not a number) is optional; blank lines and
 * '#' comments are skipped. Every field must parse whole: arrivals are
 * finite, non-negative and non-decreasing; token counts are plain
 * digits, positive and in range. Export also serialises per-request
 * results for offline analysis.
 */
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/request.hpp"

namespace windserve::workload {

/** Parse a trace from CSV text. Throws std::runtime_error naming the
 *  line on a bad row. */
std::vector<Request> parse_trace_csv(std::istream &in);

/** Load a trace from a CSV file. */
std::vector<Request> load_trace_csv(const std::string &path);

/** Serialise arrival/prompt/output columns (replayable schema). */
void write_trace_csv(std::ostream &out, const std::vector<Request> &trace);

/**
 * Serialise full per-request results (one row per request: lengths,
 * every timestamp, ttft/tpot, counters) for offline analysis.
 */
void write_results_csv(std::ostream &out,
                       const std::vector<Request> &requests);

/** File variants. Throws std::runtime_error if the file can't open. */
void save_trace_csv(const std::string &path,
                    const std::vector<Request> &trace);
void save_results_csv(const std::string &path,
                      const std::vector<Request> &requests);

} // namespace windserve::workload
