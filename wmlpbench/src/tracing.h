// Benchmark-side span tracing: forwarding wrappers around the public
// RequestSource, Policy and FractionalPolicy interfaces record one span per
// call into the wrapped layer. Spans live in memory and are written out at
// the end of a traced pass; a layer's self time is its span minus the spans
// of its children.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fractional.h"
#include "engine/request_source.h"
#include "sim/policy.h"

namespace wmlpbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int32_t layer = 0;
  int32_t parent = -1;  // index into the recorder's spans, -1 for a root
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Collects spans while enabled; Begin/End nest like a call stack. Layers
// are interned by name so a span stores a small integer.
class SpanRecorder {
 public:
  int32_t Layer(const std::string& name);

  void set_enabled(bool on) { enabled_ = on; }
  void set_request(int64_t t) { request_ = t; }

  // Returns the span's index, or -1 when disabled.
  int32_t Begin(int32_t layer);
  void End(int32_t span);

  // Adds `n` to a named per-layer counter (recorded only while enabled).
  void Count(int32_t layer, int64_t n) {
    if (enabled_) counts_[layer] += n;
  }

  int64_t count(int32_t layer) const { return counts_[layer]; }

  // Sum over `layer`'s spans of duration, and of duration minus the
  // durations of direct children (self time).
  int64_t TotalNs(int32_t layer) const;
  int64_t SelfNs(int32_t layer) const;

  // Writes one "layer parent request start_ns end_ns" line per span.
  // Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  int64_t request_ = -1;
  std::vector<std::string> names_;
  std::vector<int64_t> counts_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, int32_t layer)
      : rec_(rec), index_(rec.Begin(layer)) {}
  ~ScopedSpan() { rec_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int32_t index_;
};

class TracedSource final : public wmlp::RequestSource {
 public:
  TracedSource(wmlp::RequestSource& inner, SpanRecorder& rec,
               const std::string& layer)
      : inner_(inner), rec_(rec), layer_(rec.Layer(layer)) {}

  const wmlp::Instance& instance() const override {
    return inner_.instance();
  }
  bool Next(wmlp::Request& r) override {
    ScopedSpan s(rec_, layer_);
    return inner_.Next(r);
  }
  int64_t NextBatch(wmlp::Request* out, int64_t max) override {
    ScopedSpan s(rec_, layer_);
    return inner_.NextBatch(out, max);
  }
  int64_t length_hint() const override { return inner_.length_hint(); }

 private:
  wmlp::RequestSource& inner_;
  SpanRecorder& rec_;
  int32_t layer_;
};

// Spans `serve_layer` around Serve and `attach_layer` around Attach. The
// prefetch hints are forwarded untouched so batching behaves as unwrapped.
class TracedPolicy final : public wmlp::Policy {
 public:
  TracedPolicy(wmlp::Policy& inner, SpanRecorder& rec,
               const std::string& serve_layer,
               const std::string& attach_layer)
      : inner_(inner),
        rec_(rec),
        serve_(rec.Layer(serve_layer)),
        attach_(rec.Layer(attach_layer)) {}

  void Attach(const wmlp::Instance& instance) override {
    ScopedSpan s(rec_, attach_);
    inner_.Attach(instance);
  }
  void Serve(wmlp::Time t, const wmlp::Request& r,
             wmlp::CacheOps& ops) override {
    rec_.set_request(t);
    ScopedSpan s(rec_, serve_);
    inner_.Serve(t, r, ops);
  }
  int32_t PrefetchDistance() const override {
    return inner_.PrefetchDistance();
  }
  void Prefetch(const wmlp::Request& r) const override { inner_.Prefetch(r); }
  std::string name() const override { return inner_.name(); }

 private:
  wmlp::Policy& inner_;
  SpanRecorder& rec_;
  int32_t serve_;
  int32_t attach_;
};

// Owning wrapper (the rounding and discretization layers take ownership of
// their fractional input). Spans `<layer>.serve` around Serve and
// `<layer>.last_changed` around last_changed(), and counts the pages the
// latter reports under `<layer>.changed_pages`. U() reads are forwarded
// without a span: they cost a few nanoseconds each and are charged to the
// caller's self time.
class TracedFractional final : public wmlp::FractionalPolicy {
 public:
  TracedFractional(wmlp::FractionalPolicyPtr inner, SpanRecorder& rec,
                   const std::string& layer)
      : inner_(std::move(inner)),
        rec_(rec),
        serve_(rec.Layer(layer + ".serve")),
        last_changed_(rec.Layer(layer + ".last_changed")),
        changed_pages_(rec.Layer(layer + ".changed_pages")) {}

  void Attach(const wmlp::Instance& instance) override {
    inner_->Attach(instance);
  }
  void Serve(wmlp::Time t, const wmlp::Request& r) override {
    ScopedSpan s(rec_, serve_);
    inner_->Serve(t, r);
  }
  double U(wmlp::PageId p, wmlp::Level i) const override {
    return inner_->U(p, i);
  }
  const std::vector<wmlp::PageId>& last_changed() const override {
    ScopedSpan s(rec_, last_changed_);
    const std::vector<wmlp::PageId>& changed = inner_->last_changed();
    rec_.Count(changed_pages_, static_cast<int64_t>(changed.size()));
    return changed;
  }
  void PrefetchPage(wmlp::PageId p) const override { inner_->PrefetchPage(p); }
  wmlp::Cost lp_cost() const override { return inner_->lp_cost(); }
  std::string name() const override { return inner_->name(); }

 private:
  wmlp::FractionalPolicyPtr inner_;
  SpanRecorder& rec_;
  int32_t serve_;
  int32_t last_changed_;
  int32_t changed_pages_;
};

}  // namespace wmlpbench
