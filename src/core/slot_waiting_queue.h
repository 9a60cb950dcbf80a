// Slot-aware view over WaitingTimeQueue, with the one start/finish feedback
// protocol both executors drive: the simulator's policies and the
// prototype's CentralBackend.
//
// The §3.7 centralized component models each execution slot as an
// independent single-slot server (the paper's own equivalence, §4.1): a
// worker with S slots contributes S *lanes* to the underlying
// WaitingTimeQueue, and a task is assigned to the minimum-waiting lane of
// any tracked worker. With every worker at one slot, lane ids equal worker
// ids and the assignment sequence is bit-identical to driving
// WaitingTimeQueue directly.
//
// Feedback names the worker and the job, never the lane:
//   AssignTask(now, job, est)      charges `est` to the chosen lane and
//                                  records the charge under (worker, job);
//   OnTaskStart(worker, job, now)  discharges the oldest of that job's
//                                  charges on that worker and marks its lane
//                                  executing;
//   OnTaskFinish(worker, job, now) ends the job's longest-executing lane on
//                                  that worker. A finish that overtakes its
//                                  start (the prototype bus can reorder the
//                                  two reports) is replayed when the start
//                                  lands.
// Why (worker, job): it is what both executors already report — a lane
// cannot travel through the SchedulerPolicy hooks — and it is exact. Every
// task of a job is charged the job's one canonical estimate, so a start
// always discharges a charge of its own size, whatever order the tasks on a
// multi-slot worker start in. The queue remembers the estimate; callers pass
// it only at assignment.
//
// State is one record per charged task in flight, erased when the task
// finishes; it follows tracked work in flight, not fleet size. The records
// live in an open-addressing table, not a node-based map: look-ups touch
// one cache line and nothing allocates in steady state, which keeps the
// single-slot hot path close to the record-free original. A charged task
// that never starts (placed on a worker that crashed, or a late-binding
// probe lost or cancelled) leaves its charge on that worker as phantom
// backlog, and its record in the table.
#ifndef HAWK_CORE_SLOT_WAITING_QUEUE_H_
#define HAWK_CORE_SLOT_WAITING_QUEUE_H_

#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/check.h"
#include "src/common/types.h"
#include "src/core/waiting_time_queue.h"

namespace hawk {

class SlotWaitingTimeQueue {
 public:
  // Tracks workers [0, num_workers) of `cluster` — a worker-id prefix, which
  // in this codebase is always either the general partition or the whole
  // cluster. `cluster` must outlive the queue.
  SlotWaitingTimeQueue(const Cluster& cluster, uint32_t num_workers)
      : store_(&cluster.workers()),
        single_slot_(cluster.workers().SlotBegin(num_workers) == num_workers),
        inner_(cluster.workers().SlotBegin(num_workers)) {
    HAWK_CHECK_GT(num_workers, 0u);
    HAWK_CHECK_LE(num_workers, cluster.NumWorkers());
  }

  // Assigns one task of `job`, estimated at `estimate_us`, to the worker
  // owning the minimum-waiting lane and charges that lane. Ties break by
  // lowest lane id, hence lowest worker id (deterministic).
  WorkerId AssignTask(SimTime now, JobId job, DurationUs estimate_us) {
    const SlotId lane = inner_.AssignTask(now, estimate_us);
    const WorkerId worker = single_slot_ ? lane : store_->WorkerOfSlot(lane);
    records_.Append(Record{Key(worker, job), estimate_us, lane, State::kWaiting});
    return worker;
  }

  // Notification: a task of `job` assigned to `worker` began executing.
  void OnTaskStart(WorkerId worker, JobId job, SimTime now) {
    const uint64_t key = Key(worker, job);
    Record* record = records_.Find(key, State::kWaiting);
    HAWK_CHECK(record != nullptr)
        << "start without matching assignment: job " << job << " on worker " << worker;
    const SlotId lane = record->lane;
    inner_.OnTaskStart(lane, now, record->estimate_us);
    if (early_finishes_ > 0 && records_.Find(key, State::kFinishedEarly) != nullptr) {
      // Replay the finish that overtook this start.
      --early_finishes_;
      records_.Erase(record);
      records_.Erase(records_.Find(key, State::kFinishedEarly));
      inner_.OnTaskFinish(lane, now);
      return;
    }
    record->state = State::kExecuting;
  }

  // Notification: a task of `job` executing on `worker` finished.
  void OnTaskFinish(WorkerId worker, JobId job, SimTime now) {
    const uint64_t key = Key(worker, job);
    Record* record = records_.Find(key, State::kExecuting);
    if (record != nullptr) {
      inner_.OnTaskFinish(record->lane, now);
      records_.Erase(record);
      return;
    }
    // The report overtook its own start: park it for the start to replay.
    HAWK_CHECK(records_.Find(key, State::kWaiting) != nullptr)
        << "finish without matching assignment: job " << job << " on worker " << worker;
    ++early_finishes_;
    records_.Append(Record{key, 0, 0, State::kFinishedEarly});
  }

 private:
  enum class State : uint32_t { kWaiting, kExecuting, kFinishedEarly };

  // One charged task in flight (or one finish awaiting its start).
  struct Record {
    uint64_t key;  // Key(worker, job).
    DurationUs estimate_us;
    SlotId lane;
    State state;
  };

  // Open-addressing multimap of records (linear probing, backward-shift
  // erase). Records of one key share a home slot and keep their insertion
  // order along its probe run, so Find returns the oldest match: feedback is
  // FIFO per (worker, job). Append and Erase invalidate Record pointers.
  class RecordTable {
   public:
    RecordTable() { Grow(); }

    Record* Find(uint64_t key, State state) {
      for (size_t i = Home(key); slots_[i].key != kFree; i = (i + 1) & mask_) {
        if (slots_[i].key == key && slots_[i].state == state) {
          return &slots_[i];
        }
      }
      return nullptr;
    }

    void Append(const Record& record) {
      if (2 * (size_ + 1) > slots_.size()) {  // Keep probe runs short.
        Grow();
      }
      size_t i = Home(record.key);
      while (slots_[i].key != kFree) {
        i = (i + 1) & mask_;
      }
      slots_[i] = record;
      ++size_;
    }

    void Erase(Record* record) {
      size_t hole = static_cast<size_t>(record - slots_.data());
      // Pull back each later record of the probe run whose home slot does
      // not lie strictly after the hole; order along the run is preserved.
      for (size_t i = (hole + 1) & mask_; slots_[i].key != kFree; i = (i + 1) & mask_) {
        if (((i - Home(slots_[i].key)) & mask_) >= ((i - hole) & mask_)) {
          slots_[hole] = slots_[i];
          hole = i;
        }
      }
      slots_[hole].key = kFree;
      --size_;
    }

   private:
    static constexpr uint64_t kFree = ~uint64_t{0};  // No worker id reaches 2^32 - 1.

    size_t Home(uint64_t key) const {
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    // Doubles the capacity, 2^(64 - shift_), starting from 64 slots.
    void Grow() {
      std::vector<Record> old = std::move(slots_);
      shift_ = old.empty() ? 58 : shift_ - 1;
      slots_.assign(size_t{1} << (64 - shift_), Record{kFree, 0, 0, State::kWaiting});
      mask_ = slots_.size() - 1;
      size_ = 0;
      // Re-append starting just past a free slot, so every probe run is
      // walked front to back and keeps its order.
      size_t start = 0;
      while (start < old.size() && old[start].key != kFree) {
        ++start;
      }
      for (size_t k = 1; k <= old.size(); ++k) {
        const Record& record = old[(start + k) % old.size()];
        if (record.key != kFree) {
          Append(record);
        }
      }
    }

    std::vector<Record> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
    unsigned shift_ = 64;
  };

  static uint64_t Key(WorkerId worker, JobId job) {
    return (static_cast<uint64_t>(worker) << 32) | job;
  }

  const WorkerStore* store_;
  bool single_slot_;  // Every tracked worker has one slot: lane ids are worker ids.
  WaitingTimeQueue inner_;
  RecordTable records_;
  uint64_t early_finishes_ = 0;  // kFinishedEarly records in the table.
};

}  // namespace hawk

#endif  // HAWK_CORE_SLOT_WAITING_QUEUE_H_
