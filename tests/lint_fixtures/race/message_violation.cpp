// uniserver-race fixture: message-plane discipline violations in an
// orchestrator-shaped control plane. Expected findings with
// --rules message: exactly 7.
//   reset()     — now_ mutation outside advance()         (1)
//               — next_seq_ rewound to zero               (2)
//               — generation_ map cleared                 (3)
//   forget()    — generation_[vm] reset by assignment     (4)
//   fast_path() — messages_ heap push outside schedule()  (5)
//   hurry()     — schedule() with a negative delay        (6)
//   rearm()     — ticket timer_seq written outside
//                 schedule()                              (7)
// advance(), schedule() and bump() below show the exempt forms and must
// stay quiet.
#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "common/units.h"

namespace demo {

using uniserver::Seconds;

class Orchestrator {
 public:
  void advance(Seconds to);
  void reset();
  void forget(std::uint64_t vm);
  void fast_path(std::uint64_t vm, Seconds at);
  void hurry(std::uint64_t vm, Seconds now);
  void rearm(std::uint64_t vm);
  void bump(std::uint64_t vm);

 private:
  struct Ticket {
    std::uint64_t vm_id{0};
    std::uint64_t timer_seq{0};
  };
  struct Message {
    double at{0.0};
    std::uint64_t seq{0};
    std::uint64_t vm_id{0};
    std::uint64_t generation{0};
    bool operator>(const Message& other) const { return at > other.at; }
  };

  void schedule(std::uint64_t vm, Seconds at);

  std::priority_queue<Message, std::vector<Message>, std::greater<>> messages_;
  std::map<std::uint64_t, std::uint64_t> generation_;
  std::map<std::uint64_t, Ticket> tickets_;
  std::uint64_t next_seq_{0};
  Seconds now_{0.0};
};

// Exempt: advance() is the one place simulated time moves.
void Orchestrator::advance(Seconds to) {
  now_ = to;
}

// Exempt: schedule() is the one place messages enter the heap and the
// one place a ticket's timer_seq is written.
void Orchestrator::schedule(std::uint64_t vm, Seconds at) {
  tickets_[vm].timer_seq = next_seq_;
  messages_.push({at.value, next_seq_++, vm, generation_[vm]});
}

// Exempt: a generation may only grow; a monotone increment is allowed.
void Orchestrator::bump(std::uint64_t vm) {
  ++generation_[vm];
}

void Orchestrator::reset() {
  now_ = Seconds{0.0};      // time mutated outside advance()
  next_seq_ = 0;            // sequence counter rewound
  generation_.clear();      // stale-message guard wiped
}

void Orchestrator::forget(std::uint64_t vm) {
  generation_[vm] = 0;      // per-VM generation reset
}

void Orchestrator::fast_path(std::uint64_t vm, Seconds at) {
  // Bypasses schedule(): no generation stamp, ordering by luck.
  messages_.push({at.value, next_seq_++, vm, 0});
}

void Orchestrator::hurry(std::uint64_t vm, Seconds now) {
  schedule(vm, Seconds{now.value - 1.0});  // lands in the past
}

void Orchestrator::rearm(std::uint64_t vm) {
  tickets_[vm].timer_seq = 0;  // a stale message could now fire
}

}  // namespace demo
