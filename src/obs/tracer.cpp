#include "obs/tracer.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/clock.hpp"

namespace lrgp::obs {

namespace {

void append_json_string(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_json_number(std::string& out, double v) {
    if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 && v < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        out += buf;
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

}  // namespace

IterationTracer::IterationTracer(TracerOptions options)
    : options_(options), origin_ns_(monotonic_ns()) {
    if (options_.sample_every == 0) options_.sample_every = 1;
}

void IterationTracer::beginIteration(std::uint64_t iteration) {
    sampling_ = (iteration % options_.sample_every) == 0 ||
                (options_.sample_every > 1 && iteration == 1);
}

double IterationTracer::nowMicros() const noexcept {
    return static_cast<double>(monotonic_ns() - origin_ns_) * 1e-3;
}

void IterationTracer::push(TraceEvent&& event) {
    if (!sampling_) return;
    if (events_.size() >= options_.max_events) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

void IterationTracer::complete(
    std::string name, std::string cat, std::uint32_t tid, double ts_us, double dur_us,
    std::vector<std::pair<std::string, std::variant<double, std::string>>> args) {
    push(TraceEvent{std::move(name), std::move(cat), 'X', ts_us, dur_us, tid, std::move(args)});
}

void IterationTracer::instant(
    std::string name, std::string cat, std::uint32_t tid, double ts_us,
    std::vector<std::pair<std::string, std::variant<double, std::string>>> args) {
    push(TraceEvent{std::move(name), std::move(cat), 'i', ts_us, 0.0, tid, std::move(args)});
}

void IterationTracer::counterSample(std::string name, std::uint32_t tid, double ts_us,
                                    double value) {
    push(TraceEvent{std::move(name), "counter", 'C', ts_us, 0.0, tid,
                    {{"value", value}}});
}

void IterationTracer::writeChromeTrace(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::string line;
    for (const TraceEvent& e : events_) {
        line.clear();
        if (!first) line += ',';
        first = false;
        line += "\n{\"name\":";
        append_json_string(line, e.name);
        line += ",\"cat\":";
        append_json_string(line, e.cat);
        line += ",\"ph\":\"";
        line += e.ph;
        line += "\",\"pid\":1,\"tid\":";
        append_json_number(line, static_cast<double>(e.tid));
        line += ",\"ts\":";
        append_json_number(line, e.ts_us);
        if (e.ph == 'X') {
            line += ",\"dur\":";
            append_json_number(line, e.dur_us);
        }
        if (e.ph == 'i') line += ",\"s\":\"t\"";  // thread-scoped instant
        if (!e.args.empty()) {
            line += ",\"args\":{";
            bool first_arg = true;
            for (const auto& [key, value] : e.args) {
                if (!first_arg) line += ',';
                first_arg = false;
                append_json_string(line, key);
                line += ':';
                if (const double* d = std::get_if<double>(&value))
                    append_json_number(line, *d);
                else
                    append_json_string(line, std::get<std::string>(value));
            }
            line += '}';
        }
        line += '}';
        os << line;
    }
    os << "\n]}\n";
}

std::string IterationTracer::chromeTraceText() const {
    std::ostringstream os;
    writeChromeTrace(os);
    return os.str();
}

}  // namespace lrgp::obs
