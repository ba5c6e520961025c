#include "engine/eddy.hpp"

#include <cassert>
#include <chrono>
#include <string>

#include "telemetry/json.hpp"

namespace amri::engine {

EddyRouter::EddyRouter(const QuerySpec& query, std::vector<StemOperator*> stems,
                       EddyOptions options, CostMeter* meter,
                       telemetry::Telemetry* telemetry, QuerySlot slot)
    : query_(query),
      stems_(std::move(stems)),
      position_maps_(std::move(slot.position_maps)),
      query_index_(slot.index),
      states_shared_(slot.count > 1),
      options_(options),
      policy_(make_routing_policy(options.routing)),
      meter_(meter),
      telemetry_(telemetry) {
  assert(stems_.size() == query_.num_streams());
  if (telemetry_ != nullptr) {
    auto& reg = telemetry_->metrics();
    // Appended piecewise: GCC 12 misreports `"q" + std::string` under
    // -Wrestrict.
    std::string prefix = "eddy";
    if (states_shared_) {
      prefix = "q";
      prefix += std::to_string(query_index_);
      prefix += ".eddy";
    }
    decisions_counter_ = &reg.counter(prefix + ".decisions");
    results_counter_ = &reg.counter(prefix + ".results");
    truncated_counter_ = &reg.counter(prefix + ".partials_truncated");
    route_change_counter_ = &reg.counter(prefix + ".route_changes");
  }
}

void EddyRouter::note_decision(std::uint32_t done_mask, StreamId target) {
  if (telemetry_ == nullptr) return;  // counters resolve with telemetry
  decisions_counter_->add();
  const auto it = last_target_.find(done_mask);
  if (it != last_target_.end() && it->second == target) return;
  const bool had_previous = it != last_target_.end();
  if (had_previous) {
    route_change_counter_->add();
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("done_mask", static_cast<std::uint64_t>(done_mask));
    w.field("from", static_cast<std::uint64_t>(it->second));
    w.field("to", static_cast<std::uint64_t>(target));
    w.end_object();
    telemetry_->emit(telemetry::EventKind::kRoutingChange, target,
                     std::move(w).take());
  }
  last_target_[done_mask] = target;
}

std::uint64_t EddyRouter::route(const Tuple* stored,
                                std::vector<JoinResult>* sink,
                                std::uint32_t done, std::uint64_t span,
                                const BatchVisibility* visibility,
                                std::size_t order) {
  assert(stored != nullptr);
  ++arrivals_;
  const std::uint32_t all = query_.all_streams_mask();
  // The traced arrival's span is active only while it routes, so a sharded
  // state's fan-out events land in this arrival's span and no other.
  if (span != 0 && telemetry_ != nullptr) telemetry_->resume_span(span);

  stack_.clear();
  Partial& root = stack_.emplace_back();
  root.done = done | (std::uint32_t{1} << stored->stream);
  root.members.resize(query_.num_streams(), nullptr);
  root.members[stored->stream] = stored;

  std::uint64_t produced = 0;
  std::size_t processed = 0;
  while (!stack_.empty()) {
    if (++processed > options_.max_partials_per_arrival) {
      ++truncated_;
      if (telemetry_ != nullptr) {
        truncated_counter_->add();
        if (span != 0) {
          telemetry::JsonWriter w;
          w.begin_object();
          w.field("span", span);
          w.field("stage", "truncate");
          w.field("wall_ns", telemetry_->wall_ns());
          w.field("processed", static_cast<std::uint64_t>(processed));
          w.end_object();
          telemetry_->emit(telemetry::EventKind::kSpan, stored->stream,
                           std::move(w).take());
        }
      }
      break;
    }
    const Partial p = std::move(stack_.back());
    stack_.pop_back();
    if (p.done == all) {
      ++produced;
      if (sink != nullptr) {
        JoinResult r;
        r.members = p.members;
        sink->push_back(std::move(r));
      }
      continue;
    }

    // Candidate next states and the access pattern each would see.
    ctx_.done_mask = p.done;
    ctx_.candidates.clear();
    for (StreamId s = 0; s < query_.num_streams(); ++s) {
      if ((p.done >> s) & 1u) continue;
      ctx_.candidates.push_back(RoutingContext::Candidate{
          s, query_.layout(s).pattern_for(p.done)});
    }
    assert(!ctx_.candidates.empty());
    // Decision reuse: reuse the cached decision for this done-mask while
    // it lasts; only fresh decisions consult the policy (and pay the
    // routing cost).
    std::size_t pick;
    bool fresh_decision = false;
    if (options_.decision_reuse > 1) {
      auto& cached = decision_cache_[p.done];
      if (cached.remaining == 0) {
        cached.pick = policy_->choose(ctx_, stats_);
        cached.remaining = options_.decision_reuse;
        fresh_decision = true;
        if (meter_ != nullptr) meter_->charge_route();
      }
      pick = std::min(cached.pick, ctx_.candidates.size() - 1);
      --cached.remaining;
    } else {
      pick = policy_->choose(ctx_, stats_);
      fresh_decision = true;
      if (meter_ != nullptr) meter_->charge_route();
    }
    const StreamId target = ctx_.candidates[pick].state;
    const AttrMask ap = ctx_.candidates[pick].pattern;
    if (fresh_decision) note_decision(p.done, target);

    // Bind every available join attribute of the target state,
    // translating query-local JAS positions to the (possibly wider)
    // shared-stem positions in multi-query mode.
    const StateLayout& layout = query_.layout(target);
    const std::vector<std::uint8_t>* pos_map =
        position_maps_.empty() ? nullptr : &position_maps_[target];
    key_.mask = 0;
    key_.values.clear();
    key_.values.resize(stems_[target]->layout().jas.size(), Value{0});
    for_each_bit(ap, [&](unsigned pos) {
      const auto& peer = layout.peers[pos];
      const unsigned stem_pos =
          pos_map == nullptr ? pos : (*pos_map)[pos];
      key_.mask |= (AttrMask{1} << stem_pos);
      key_.values[stem_pos] = p.members[peer.stream]->at(peer.attr);
    });

    // The target STeM's scratch arena: cleared here, capacity retained
    // across arrivals, so the steady-state probe path allocates nothing.
    std::vector<const Tuple*>& matches = stems_[target]->probe_scratch();
    std::chrono::steady_clock::time_point hop_t0{};
    if (span != 0) hop_t0 = std::chrono::steady_clock::now();
    const auto probe_stats =
        stems_[target]->probe(key_, matches, query_index_);
    if (span != 0 && telemetry_ != nullptr) {
      const auto probe_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - hop_t0)
              .count();
      telemetry::JsonWriter w;
      w.begin_object();
      w.field("span", span);
      w.field("stage", "hop");
      w.field("wall_ns", telemetry_->wall_ns());
      w.field("done_mask", static_cast<std::uint64_t>(p.done));
      w.field("target", static_cast<std::uint64_t>(target));
      w.field("ap", static_cast<std::uint64_t>(ap));
      w.field("matches", static_cast<std::uint64_t>(probe_stats.matches));
      w.field("compared",
              static_cast<std::uint64_t>(probe_stats.tuples_compared));
      w.field("probe_ns", static_cast<std::uint64_t>(probe_ns));
      w.end_object();
      telemetry_->emit(telemetry::EventKind::kSpan, target,
                       std::move(w).take());
    }
    stats_.record(target, ap, static_cast<double>(probe_stats.matches),
                  static_cast<double>(probe_stats.tuples_compared));

    // Drop the matches the arrival must not see: batch members past its
    // sequence horizon (wall mode; uncharged, the comparisons were already
    // charged by the probe), then, on states shared by several queries,
    // tuples the target stream's WHERE selection rejects (charged per
    // compare): a shared state stores any tuple some query accepted. A
    // state that serves this query alone holds only tuples that already
    // passed the selection at admission, so there it is not re-checked.
    const Selection* recheck =
        states_shared_ && !query_.selection(target).empty()
            ? &query_.selection(target)
            : nullptr;
    if (visibility != nullptr || recheck != nullptr) {
      std::size_t kept = 0;
      for (const Tuple* m : matches) {
        if (visibility != nullptr && !visibility->visible_to(m, order)) {
          continue;
        }
        if (recheck != nullptr && !recheck->matches(*m, meter_)) continue;
        matches[kept++] = m;
      }
      matches.resize(kept);
    }

    for (const Tuple* m : matches) {
      Partial& next = stack_.emplace_back();
      next.done = p.done | (std::uint32_t{1} << target);
      next.members = p.members;
      next.members[target] = m;
    }
  }
  results_ += produced;
  if (telemetry_ != nullptr && produced > 0) results_counter_->add(produced);
  if (span != 0 && telemetry_ != nullptr) telemetry_->end_span();
  return produced;
}

}  // namespace amri::engine
