// uniserver-race fixture: the documented message-plane discipline.
// Expected findings with --rules message: none.
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
  void submit(std::uint64_t vm, Seconds now);
  void cancel(std::uint64_t vm);

 private:
  struct Ticket {
    std::uint64_t vm_id{0};
    std::uint64_t submit_seq{0};
    std::uint64_t timer_seq{submit_seq};  // no timer yet
  };
  struct Message {
    double at{0.0};
    std::uint64_t seq{0};
    std::uint64_t vm_id{0};
    bool operator>(const Message& other) const { return at > other.at; }
  };

  void schedule(Ticket& t, Seconds at);

  std::priority_queue<Message, std::vector<Message>, std::greater<>> messages_;
  std::map<std::uint64_t, Ticket> tickets_;
  std::uint64_t next_seq_{0};
  Seconds now_{0.0};
};

void Orchestrator::advance(Seconds to) {
  now_ = to;  // time moves forward only here
}

void Orchestrator::schedule(Ticket& t, Seconds at) {
  // (time, seq) ordering and the ticket's one live timer, in one place.
  t.timer_seq = next_seq_++;
  messages_.push({at.value, t.timer_seq, t.vm_id});
}

void Orchestrator::submit(std::uint64_t vm, Seconds now) {
  Ticket& t = tickets_[vm];
  t.vm_id = vm;
  schedule(t, Seconds{now.value + 0.5});  // strictly in the future
}

void Orchestrator::cancel(std::uint64_t vm) {
  tickets_.erase(vm);  // its pending timer no longer matches a ticket
}

}  // namespace demo
