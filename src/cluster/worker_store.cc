#include "src/cluster/worker_store.h"

namespace hawk {

WorkerStore::WorkerStore(uint32_t num_workers, const SlotSpec& spec) {
  HAWK_CHECK_GT(num_workers, 0u);
  HAWK_CHECK_GE(spec.slots_per_worker, 1u);
  HAWK_CHECK_LE(spec.slots_per_worker, kMaxSlotsPerWorker);
  if (!spec.Uniform()) {
    HAWK_CHECK_GE(spec.big_worker_slots, 1u);
    HAWK_CHECK_LE(spec.big_worker_slots, kMaxSlotsPerWorker);
  }

  slots_.resize(num_workers);
  free_.resize(num_workers);
  executing_.assign(num_workers, 0);
  requesting_.assign(num_workers, 0);
  occupied_long_.assign(num_workers, 0);
  queue_long_.assign(num_workers, 0);
  queue_short_.assign(num_workers, 0);
  queues_.resize(num_workers);
  busy_accum_us_.assign(num_workers, 0);

  const bool uniform = spec.Uniform() || spec.BigWorkerCount(num_workers) == 0;
  const uint32_t uniform_slots = spec.slots_per_worker;
  tables_ = !uniform || (uniform_slots & (uniform_slots - 1)) != 0;
  if (tables_) {
    slot_begin_.resize(static_cast<size_t>(num_workers) + 1);
  } else {
    while ((1u << slot_shift_) < uniform_slots) {
      ++slot_shift_;
    }
  }
  uint64_t next_slot = 0;
  for (uint32_t w = 0; w < num_workers; ++w) {
    const uint32_t s = uniform ? uniform_slots : spec.SlotsOf(w, num_workers);
    slots_[w] = static_cast<uint16_t>(s);
    free_[w] = static_cast<uint16_t>(s);
    if (tables_) {
      slot_begin_[w] = static_cast<SlotId>(next_slot);
    }
    next_slot += s;
  }
  total_slots_ = next_slot;
  // The slot-index space is sampled with 32-bit draws (probe placement,
  // steal victim selection); a layout that overflows it is a config error.
  HAWK_CHECK_LE(total_slots_, static_cast<uint64_t>(kInvalidWorker))
      << "total slot count overflows the 32-bit slot-index space";
  if (tables_) {
    slot_begin_[num_workers] = static_cast<SlotId>(total_slots_);
    slot_to_worker_.resize(total_slots_);
    for (uint32_t w = 0; w < num_workers; ++w) {
      for (SlotId s = slot_begin_[w]; s < slot_begin_[w + 1]; ++s) {
        slot_to_worker_[s] = w;
      }
    }
  }
}

size_t WorkerStore::StealableGroupBegin(WorkerId id) const {
  // Scan [current work, queue...]; the group starts at the first short entry
  // observed after at least one long entry.
  const size_t i = Check(id);
  const RingBuffer<QueueEntry>& queue = queues_[i];
  const size_t size = queue.Size();
  bool seen_long = occupied_long_[i] > 0;
  for (size_t k = 0; k < size; ++k) {
    if (queue.At(k).is_long) {
      seen_long = true;
      continue;
    }
    if (seen_long) {
      return k;
    }
  }
  return size;
}

size_t WorkerStore::MoveStealableGroup(WorkerId victim, WorkerId thief) {
  const size_t begin = StealableGroupBegin(victim);
  const RingBuffer<QueueEntry>& queue = queues_[victim];
  if (begin >= queue.Size()) {
    return 0;
  }
  size_t end = begin;
  while (end < queue.Size() && !queue.At(end).is_long) {
    Enqueue(thief, queue.At(end));
    ++end;
  }
  RemoveGroup(victim, begin, end);
  return end - begin;
}

std::vector<QueueEntry> WorkerStore::ExtractStealableGroup(WorkerId id) {
  std::vector<QueueEntry> stolen;
  if (!MayHoldStealableGroup(Check(id))) {
    return stolen;
  }
  const size_t begin = StealableGroupBegin(id);
  const RingBuffer<QueueEntry>& queue = queues_[id];
  if (begin >= queue.Size()) {
    return stolen;
  }
  size_t end = begin;
  while (end < queue.Size() && !queue.At(end).is_long) {
    stolen.push_back(queue.At(end));
    ++end;
  }
  RemoveGroup(id, begin, end);
  return stolen;
}

void WorkerStore::RemoveGroup(WorkerId id, size_t begin, size_t end) {
  const size_t i = Check(id);
  for (size_t k = begin; k < end; ++k) {
    if (queues_[i].At(k).is_long) {
      --queue_long_[i];
    } else {
      --queue_short_[i];
    }
  }
  HAWK_CHECK_GE(queued_total_, end - begin);
  queued_total_ -= end - begin;
  queues_[i].EraseRange(begin, end);
}

}  // namespace hawk
