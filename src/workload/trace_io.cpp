#include "workload/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace windserve::workload {

namespace {

/** @p s without leading and trailing blanks (spaces, tabs, CR). */
std::string_view
trim(std::string_view s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string_view::npos)
        return {};
    return s.substr(first, s.find_last_not_of(" \t\r") - first + 1);
}

bool
is_header_or_comment(const std::string &line)
{
    if (trim(line).empty() || line[0] == '#')
        return true;
    // A header row has a letter in its first field, which does not
    // begin with a number ("nan" and "1e3x" are bad data, not headers).
    std::string_view first =
        trim(std::string_view(line).substr(0, line.find(',')));
    const bool has_letter =
        std::any_of(first.begin(), first.end(), [](char c) {
            return std::isalpha(static_cast<unsigned char>(c));
        });
    double v;
    return has_letter &&
           std::from_chars(first.data(), first.data() + first.size(), v)
                   .ec != std::errc{};
}

/** @p s with every byte outside printable ASCII written as \xHH, so
 *  an error message quoting it is never cut short by a NUL. */
std::string
printable(std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        if (u >= 0x20 && u < 0x7f) {
            out += c;
        } else {
            out += "\\x";
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        }
    }
    return out;
}

[[noreturn]] void
bad_row(const std::string &what, std::size_t lineno)
{
    throw std::runtime_error("trace csv: " + what + " on line " +
                             std::to_string(lineno));
}

/** The whole blank-trimmed field @p tok as a @p T. Unsigned types
 *  take plain digits only and report overflow instead of wrapping. */
template <class T>
T
parse_field(std::string_view tok, const char *what, std::size_t lineno)
{
    tok = trim(tok);
    T v{};
    auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size())
        bad_row(std::string("bad ") + what + " '" + printable(tok) + "'",
                lineno);
    return v;
}

} // namespace

std::vector<Request>
parse_trace_csv(std::istream &in)
{
    std::vector<Request> out;
    std::string line;
    std::size_t lineno = 0;
    double last_arrival = 0.0;
    while (std::getline(in, line)) {
        ++lineno;
        if (is_header_or_comment(line))
            continue;
        std::istringstream row(line);
        std::string a, p, o;
        if (!std::getline(row, a, ',') || !std::getline(row, p, ',') ||
            !std::getline(row, o, ','))
            bad_row("malformed row", lineno);
        Request r;
        r.arrival_time = parse_field<double>(a, "arrival time", lineno);
        r.prompt_tokens = parse_field<std::size_t>(p, "token count", lineno);
        r.output_tokens = parse_field<std::size_t>(o, "token count", lineno);
        // last_arrival starts at 0, so this also rejects negatives.
        if (!std::isfinite(r.arrival_time) || r.arrival_time < last_arrival)
            bad_row("arrivals must be finite and non-decreasing", lineno);
        if (r.prompt_tokens == 0 || r.output_tokens == 0)
            bad_row("lengths must be positive", lineno);
        last_arrival = r.arrival_time;
        r.id = out.size();
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
load_trace_csv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("trace csv: cannot open " + path);
    return parse_trace_csv(in);
}

void
write_trace_csv(std::ostream &out, const std::vector<Request> &trace)
{
    out << "arrival_time,prompt_tokens,output_tokens\n";
    for (const auto &r : trace) {
        out << r.arrival_time << "," << r.prompt_tokens << ","
            << r.output_tokens << "\n";
    }
}

void
write_results_csv(std::ostream &out, const std::vector<Request> &requests)
{
    out << "id,arrival,prompt_tokens,output_tokens,state,"
           "prefill_enqueue,prefill_start,first_token,transfer_done,"
           "decode_enqueue,decode_start,finish,ttft,tpot,"
           "swap_outs,migrations,dispatched,chunked\n";
    for (const auto &r : requests) {
        out << r.id << "," << r.arrival_time << "," << r.prompt_tokens
            << "," << r.output_tokens << "," << to_string(r.state) << ","
            << r.prefill_enqueue_time << "," << r.prefill_start_time
            << "," << r.first_token_time << "," << r.transfer_done_time
            << "," << r.decode_enqueue_time << "," << r.decode_start_time
            << "," << r.finish_time << "," << r.ttft() << "," << r.tpot()
            << "," << r.swap_outs << "," << r.migrations << ","
            << (r.prefill_dispatched ? 1 : 0) << ","
            << (r.was_chunked ? 1 : 0) << "\n";
    }
}

void
save_trace_csv(const std::string &path, const std::vector<Request> &trace)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("trace csv: cannot open " + path);
    write_trace_csv(out, trace);
}

void
save_results_csv(const std::string &path,
                 const std::vector<Request> &requests)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("trace csv: cannot open " + path);
    write_results_csv(out, requests);
}

} // namespace windserve::workload
