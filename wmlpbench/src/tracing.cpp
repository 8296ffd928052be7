#include "tracing.h"

#include <fstream>

namespace wmlpbench {

int32_t SpanRecorder::Layer(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int32_t>(i);
  }
  names_.push_back(name);
  counts_.push_back(0);
  return static_cast<int32_t>(names_.size() - 1);
}

int32_t SpanRecorder::Begin(int32_t layer) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request_;
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int32_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  stack_.pop_back();
}

int64_t SpanRecorder::TotalNs(int32_t layer) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.layer == layer) total += s.end_ns - s.start_ns;
  }
  return total;
}

int64_t SpanRecorder::SelfNs(int32_t layer) const {
  int64_t self = TotalNs(layer);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].layer == layer) {
      self -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "layer\tparent\trequest\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << names_[static_cast<size_t>(s.layer)] << '\t' << s.parent << '\t'
        << s.request << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace wmlpbench
