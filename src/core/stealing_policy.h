// Randomized work stealing (paper §3.6).
//
// When a worker runs out of work it contacts up to `cap` random victims and
// steals from the first one holding an eligible group. Both general- and
// short-partition workers may steal, but victims are always in the general
// partition — "that is where the head-of-line blocking is caused by long
// jobs". What is stolen is the first consecutive group of short entries
// after a long entry (WorkerStore::ExtractStealableGroup, Fig. 3).
//
// Victim candidates are drawn from the general partition's *slot* space
// (excluding the thief's own slots), so a big multi-slot worker is
// proportionally more likely to be contacted — it holds proportionally more
// of the cluster's blocked work. With single-slot workers the slot space is
// the worker space and the draw sequence is identical to sampling workers.
//
// One primitive, WalkVictims, turns an attempt's slot sample into victims:
// it draws the whole sample, then maps slots to workers lazily in draw order
// (skipping repeats of a multi-slot worker) and stops when its visitor says
// so. Every victim list comes from it. The simulation's kRandom attempts
// probe each victim as the walk reaches it and stop at the first steal, so a
// productive attempt never maps the rest of its sample; ChooseVictimsInto
// collects the whole walk, for kDChoice attempts and for the threaded
// prototype's node monitors. Only the steal *execution* differs between the
// simulation and the prototype.
//
// Victim *ordering* is pluggable: kRandom contacts the sampled victims in
// draw order (the paper's design); kDChoice sorts the same sample by
// descending queue length first — the power-of-d-choices idea applied to
// victim selection (PAPERS.md) — so the first contact is the likeliest to
// hold a stealable group.
#ifndef HAWK_CORE_STEALING_POLICY_H_
#define HAWK_CORE_STEALING_POLICY_H_

#include <algorithm>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/results.h"
#include "src/common/random.h"

namespace hawk {

class StealingPolicy {
 public:
  enum class VictimSelection : uint8_t {
    kRandom,   // Contact sampled victims in draw order (paper §3.6).
    kDChoice,  // Same sample, most-loaded victim first (power of d choices).
  };

  // `cap`: max random victims contacted per attempt (paper default 10).
  StealingPolicy(uint32_t cap, uint64_t seed,
                 VictimSelection selection = VictimSelection::kRandom)
      : cap_(cap), selection_(selection), rng_(seed) {}

  uint32_t cap() const { return cap_; }
  VictimSelection selection() const { return selection_; }

  // Fills `*victims` with the distinct victim workers one steal attempt
  // would contact, in contact order: the victim walk's workers, collected,
  // and — under kDChoice — stably reordered by descending queue length.
  // Draws from the policy's RNG stream exactly like TryStealInto. Empty when
  // cap is 0 or no other general-partition slot exists.
  void ChooseVictimsInto(const Cluster& cluster, WorkerId thief,
                         std::vector<WorkerId>* victims) {
    victims->clear();
    WalkVictims(cluster, thief, [victims](WorkerId victim) {
      victims->push_back(victim);
      return false;
    });
    if (selection_ == VictimSelection::kDChoice) {
      // Most-loaded first; stable so equal queues keep the draw order (and
      // an all-empty view — e.g. the prototype's static layout cluster,
      // which carries no live queue state — degrades to kRandom exactly).
      std::stable_sort(victims->begin(), victims->end(),
                       [&cluster](WorkerId a, WorkerId b) {
                         return cluster.workers().QueueSize(a) >
                                cluster.workers().QueueSize(b);
                       });
    }
  }

  // Attempts one steal for `thief`, moving the first eligible victim's
  // stealable group straight onto the thief's queue (no intermediate
  // buffer). Returns the number of entries stolen; updates the steal
  // counters in `counters`. This is the simulation hot path: the victim
  // sample is drawn into a reused member buffer, so a failed attempt
  // allocates nothing.
  size_t TryStealInto(Cluster& cluster, WorkerId thief, RunCounters* counters) {
    return ForEachVictim(cluster, thief, counters, [&cluster, thief](WorkerId victim) {
      return cluster.workers().StealGroupInto(victim, thief);
    });
  }

  // Compatibility path for tests and custom policies: returns the stolen
  // entries instead of delivering them; the entries have already been
  // removed from the victim. Same victim-selection loop as TryStealInto, so
  // draw sequence and steal outcome are identical.
  std::vector<QueueEntry> TrySteal(Cluster& cluster, WorkerId thief, RunCounters* counters) {
    std::vector<QueueEntry> stolen;
    ForEachVictim(cluster, thief, counters, [&cluster, &stolen](WorkerId victim) {
      stolen = cluster.workers().ExtractStealableGroup(victim);
      return stolen.size();
    });
    return stolen;
  }

 private:
  // The victim walk, shared by every caller: draws up to `cap` candidate
  // slots without replacement from the general partition (excluding the
  // thief's own slots), then — lazily, in draw order — maps each slot to its
  // owning worker and calls `visit(victim) -> stop`, returning at the first
  // `true`. The whole sample is drawn before the first visit, so how far a
  // walk gets never changes the RNG stream.
  //
  // Distinct slots can map to the same multi-slot worker; re-probing it
  // within one attempt is a deterministic repeat-failure, so repeats are
  // skipped and not visited. The sample stays fixed at min(cap, pool) slots —
  // single-slot fleets keep the exact historical draw sequence — so an
  // attempt in a multi-slot fleet may visit fewer than cap distinct victims
  // when its sample collides. With one slot per worker distinct slots are
  // distinct workers, and the repeat check is skipped.
  template <typename Visit>
  void WalkVictims(const Cluster& cluster, WorkerId thief, Visit&& visit) {
    if (cap_ == 0) {
      return;
    }
    const WorkerStore& store = cluster.workers();
    const bool thief_in_general = cluster.InGeneralPartition(thief);
    // Candidate pool: general-partition slots, minus the thief's own when it
    // is inside.
    const uint32_t thief_slots = thief_in_general ? store.Slots(thief) : 0;
    const uint32_t pool = cluster.GeneralSlots() - thief_slots;
    if (pool == 0) {
      return;
    }
    const SlotId thief_begin = thief_in_general ? store.SlotBegin(thief) : 0;
    rng_.SampleWithoutReplacement(pool, std::min(cap_, pool), &picks_);
    const bool one_slot_per_worker = store.TotalSlots() == store.NumWorkers();
    visited_.clear();
    for (const uint32_t pick : picks_) {
      // Skip over the thief's slot range to map pool index -> slot id.
      const SlotId slot =
          (thief_in_general && pick >= thief_begin) ? pick + thief_slots : pick;
      const WorkerId victim = store.WorkerOfSlot(slot);
      if (!one_slot_per_worker) {
        if (std::find(visited_.begin(), visited_.end(), victim) != visited_.end()) {
          continue;
        }
        visited_.push_back(victim);
      }
      if (visit(victim)) {
        return;
      }
    }
  }

  // Shared steal loop: probes victims in contact order via
  // `try_victim(victim) -> entries stolen` and stops at the first success.
  // Under kRandom the contact order is the walk's order, so the walk runs
  // lazily and stops with the probes; kDChoice must see every victim before
  // ordering them, so it collects through ChooseVictimsInto first. Updates
  // the steal counters; returns the number of entries stolen.
  template <typename TryVictim>
  size_t ForEachVictim(Cluster& cluster, WorkerId thief, RunCounters* counters,
                       TryVictim&& try_victim) {
    if (cap_ == 0) {
      return 0;
    }
    counters->steal_attempts++;
    size_t stolen = 0;
    const auto probe = [&](WorkerId victim) {
      counters->steal_victim_probes++;
      stolen = try_victim(victim);
      return stolen > 0;
    };
    if (selection_ == VictimSelection::kDChoice) {
      ChooseVictimsInto(cluster, thief, &victims_);
      for (const WorkerId victim : victims_) {
        if (probe(victim)) {
          break;
        }
      }
    } else {
      WalkVictims(cluster, thief, probe);
    }
    if (stolen > 0) {
      counters->steal_successes++;
      counters->entries_stolen += stolen;
    }
    return stolen;
  }

  uint32_t cap_;
  VictimSelection selection_;
  Rng rng_;
  // Victim-sample scratch, reused across attempts.
  std::vector<uint32_t> picks_;
  // Workers the current walk has visited (multi-slot fleets only).
  std::vector<WorkerId> visited_;
  // The current kDChoice attempt's contact list (<= cap entries).
  std::vector<WorkerId> victims_;
};

}  // namespace hawk

#endif  // HAWK_CORE_STEALING_POLICY_H_
