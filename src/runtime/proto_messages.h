// Wire messages for the prototype runtime (paper §3.8).
//
// The prototype's node monitors and schedulers communicate exclusively
// through serialized messages on the rpc::MessageBus, mirroring the paper's
// Thrift RPC between Sparrow node monitors. Each struct has Encode/Decode
// against src/rpc/serializer.h.
#ifndef HAWK_RUNTIME_PROTO_MESSAGES_H_
#define HAWK_RUNTIME_PROTO_MESSAGES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/rpc/message_bus.h"
#include "src/rpc/serializer.h"

namespace hawk {
namespace runtime {

enum MessageType : uint32_t {
  kJobSubmit = 1,     // submitter -> frontend/backend: a job with task durations
  kProbe = 2,         // frontend -> node monitor: enqueue a reservation
  kTaskRequest = 3,   // node monitor -> frontend: probe reached queue head
  kTaskGrant = 4,     // frontend -> node monitor: run this task
  kTaskCancel = 5,    // frontend -> node monitor: job has no tasks left
  kTaskPlace = 6,     // backend -> node monitor: enqueue a concrete (long) task
  kTaskStarted = 7,   // node monitor -> backend: long task began executing
  kTaskDone = 8,      // node monitor -> owner scheduler: task finished
  kStealRequest = 9,  // node monitor -> node monitor: try to steal short work
  kStealResponse = 10,  // victim -> thief: stolen probes (possibly none)
  kHeartbeat = 11  // node monitor -> failure detector: still alive
};

// Construction convention (hawk-lint rule HL001, mirroring the SimEvent
// fix): every message below is built through a named factory that assigns
// fields by name, never through positional brace-init — a reordered or
// added field then cannot silently land in the wrong slot. The factories
// are the only sanctioned senders' constructors; Decode/ReadFrom remain the
// receivers' path.
struct JobSubmitMsg {
  JobId job = 0;
  bool is_long = false;
  int64_t estimate_us = 0;
  std::vector<int64_t> task_durations_us;

  static JobSubmitMsg Make(JobId job, bool is_long, int64_t estimate_us,
                           std::vector<int64_t> task_durations_us) {
    JobSubmitMsg m;
    m.job = job;
    m.is_long = is_long;
    m.estimate_us = estimate_us;
    m.task_durations_us = std::move(task_durations_us);
    return m;
  }

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    w.WriteU32(job);
    w.WriteBool(is_long);
    w.WriteI64(estimate_us);
    w.WriteI64Vector(task_durations_us);
    return w.Take();
  }
  static JobSubmitMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    JobSubmitMsg m;
    m.job = r.ReadU32();
    m.is_long = r.ReadBool();
    m.estimate_us = r.ReadI64();
    m.task_durations_us = r.ReadI64Vector();
    return m;
  }
};

// kProbe. Also the unit stolen between node monitors: a probe retains its
// owning frontend so the thief's task request goes to the right scheduler.
// `slot` is the global slot index the frontend sampled (multi-slot capacity
// weighting; the receiving monitor validates it owns the slot); `is_long`
// is the probed job's scheduling class — node monitors need it for steal
// screening, since long probes block a queue like long tasks do (§3.6).
struct ProbeMsg {
  JobId job = 0;
  rpc::Address frontend = 0;
  uint32_t slot = 0;
  bool is_long = false;

  static ProbeMsg Make(JobId job, rpc::Address frontend, uint32_t slot, bool is_long) {
    ProbeMsg m;
    m.job = job;
    m.frontend = frontend;
    m.slot = slot;
    m.is_long = is_long;
    return m;
  }

  // The field layout lives in WriteTo/ReadFrom only; Encode/Decode and the
  // steal-response batch framing below all delegate, so a new field cannot
  // silently miss one of the copies and misalign the wire.
  void WriteTo(rpc::Writer& w) const {
    w.WriteU32(job);
    w.WriteU32(frontend);
    w.WriteU32(slot);
    w.WriteBool(is_long);
  }
  static ProbeMsg ReadFrom(rpc::Reader& r) {
    ProbeMsg m;
    m.job = r.ReadU32();
    m.frontend = r.ReadU32();
    m.slot = r.ReadU32();
    m.is_long = r.ReadBool();
    return m;
  }

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    WriteTo(w);
    return w.Take();
  }
  static ProbeMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    return ReadFrom(r);
  }
};

// kTaskRequest / kTaskStarted / kTaskCancel: job + the sender's address.
// For kTaskStarted, `slot` echoes the placement's TaskMsg::slot, which tells
// the backend the worker whose waiting-time charge the start discharges;
// unused (0) for the other types.
struct JobRefMsg {
  JobId job = 0;
  rpc::Address sender = 0;
  uint32_t slot = 0;

  // One named constructor per message role the struct carries.
  static JobRefMsg TaskRequest(JobId job, rpc::Address sender) {
    JobRefMsg m;
    m.job = job;
    m.sender = sender;
    return m;
  }
  static JobRefMsg TaskCancel(JobId job, rpc::Address sender) {
    JobRefMsg m;
    m.job = job;
    m.sender = sender;
    return m;
  }
  static JobRefMsg TaskStarted(JobId job, rpc::Address sender, uint32_t slot) {
    JobRefMsg m;
    m.job = job;
    m.sender = sender;
    m.slot = slot;
    return m;
  }

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    w.WriteU32(job);
    w.WriteU32(sender);
    w.WriteU32(slot);
    return w.Take();
  }
  static JobRefMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    JobRefMsg m;
    m.job = r.ReadU32();
    m.sender = r.ReadU32();
    m.slot = r.ReadU32();
    return m;
  }
};

// kTaskGrant / kTaskPlace / kTaskDone. For kTaskPlace, `slot` is a global
// slot index of the worker the backend's waiting-time queue chose — the
// receiving monitor validates it owns the slot, and kTaskDone echoes it back.
// Grants have no slot affinity (the monitor's slots share one FIFO queue)
// and leave it 0.
struct TaskMsg {
  JobId job = 0;
  TaskIndex task_index = 0;
  int64_t duration_us = 0;
  bool is_long = false;
  rpc::Address owner = 0;  // Scheduler to notify on completion.
  uint32_t slot = 0;

  // kTaskGrant: late-binding grant from a distributed frontend; the
  // monitor's slots share one FIFO queue, so there is no slot affinity.
  static TaskMsg Grant(JobId job, TaskIndex task_index, int64_t duration_us, bool is_long,
                       rpc::Address owner) {
    TaskMsg m;
    m.job = job;
    m.task_index = task_index;
    m.duration_us = duration_us;
    m.is_long = is_long;
    m.owner = owner;
    return m;
  }
  // kTaskPlace: direct placement by the centralized backend on the worker
  // owning `slot`.
  static TaskMsg Place(JobId job, TaskIndex task_index, int64_t duration_us, bool is_long,
                       rpc::Address owner, uint32_t slot) {
    TaskMsg m = Grant(job, task_index, duration_us, is_long, owner);
    m.slot = slot;
    return m;
  }

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    w.WriteU32(job);
    w.WriteU32(task_index);
    w.WriteI64(duration_us);
    w.WriteBool(is_long);
    w.WriteU32(owner);
    w.WriteU32(slot);
    return w.Take();
  }
  static TaskMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    TaskMsg m;
    m.job = r.ReadU32();
    m.task_index = r.ReadU32();
    m.duration_us = r.ReadI64();
    m.is_long = r.ReadBool();
    m.owner = r.ReadU32();
    m.slot = r.ReadU32();
    return m;
  }
};

// kStealRequest: thief's address. kStealResponse: batch of stolen probes.
struct StealRequestMsg {
  rpc::Address thief = 0;

  static StealRequestMsg From(rpc::Address thief) {
    StealRequestMsg m;
    m.thief = thief;
    return m;
  }

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    w.WriteU32(thief);
    return w.Take();
  }
  static StealRequestMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    StealRequestMsg m;
    m.thief = r.ReadU32();
    return m;
  }
};

struct StealResponseMsg {
  std::vector<ProbeMsg> probes;

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    w.WriteU32(static_cast<uint32_t>(probes.size()));
    for (const ProbeMsg& p : probes) {
      p.WriteTo(w);
    }
    return w.Take();
  }
  static StealResponseMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    StealResponseMsg m;
    const uint32_t count = r.ReadU32();
    m.probes.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      m.probes.push_back(ProbeMsg::ReadFrom(r));
    }
    return m;
  }
};

// kHeartbeat: the sending node. Deliberately minimal — the detector's
// suspicion state is built entirely from arrival times, not payload.
struct HeartbeatMsg {
  rpc::Address node = 0;

  static HeartbeatMsg From(rpc::Address node) {
    HeartbeatMsg m;
    m.node = node;
    return m;
  }

  std::vector<uint8_t> Encode() const {
    rpc::Writer w;
    w.WriteU32(node);
    return w.Take();
  }
  static HeartbeatMsg Decode(const std::vector<uint8_t>& buf) {
    rpc::Reader r(buf);
    HeartbeatMsg m;
    m.node = r.ReadU32();
    return m;
  }
};

// Address plan: node monitors get [0, num_nodes), frontends get
// kFrontendBase + i, the backend gets kBackendAddress, the failure detector
// gets kDetectorAddress.
inline constexpr rpc::Address kFrontendBase = 1'000'000;
inline constexpr rpc::Address kBackendAddress = 2'000'000;
inline constexpr rpc::Address kDetectorAddress = 3'000'000;

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_PROTO_MESSAGES_H_
