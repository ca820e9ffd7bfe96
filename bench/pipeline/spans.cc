#include "spans.hh"

#include <fstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace sc::pipeline {

std::size_t
SpanLog::open(std::string name, std::uint64_t job)
{
    Span span;
    span.name = std::move(name);
    span.job = job;
    span.start = now();
    span.parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t index)
{
    if (stack_.empty() || stack_.back() != index)
        panic("span %zu closed out of order", index);
    stack_.pop_back();
    Span &span = spans_[index];
    span.end = now();
    const double dur = span.end - span.start;
    self_[span.name] += dur - span.childSeconds;
    if (span.parent != kNoParent)
        spans_[span.parent].childSeconds += dur;
}

double
SpanLog::self(const std::string &name) const
{
    const auto it = self_.find(name);
    return it == self_.end() ? 0.0 : it->second;
}

double
SpanLog::duration(std::size_t index) const
{
    return spans_[index].end - spans_[index].start;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    JsonValue events = JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        JsonValue ev = JsonValue::object();
        ev.set("name", JsonValue::str(s.name));
        ev.set("ph", JsonValue::str("X"));
        ev.set("ts", JsonValue::number(s.start * 1e6));
        ev.set("dur", JsonValue::number((s.end - s.start) * 1e6));
        ev.set("pid", JsonValue::number(std::uint64_t{1}));
        ev.set("tid", JsonValue::number(std::uint64_t{1}));
        JsonValue args = JsonValue::object();
        args.set("job", JsonValue::number(s.job));
        args.set("span", JsonValue::number(std::uint64_t{i}));
        if (s.parent != kNoParent)
            args.set("parent",
                     JsonValue::number(std::uint64_t{s.parent}));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    JsonValue root = JsonValue::object();
    root.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << root.dump() << '\n';
    return static_cast<bool>(out);
}

} // namespace sc::pipeline
