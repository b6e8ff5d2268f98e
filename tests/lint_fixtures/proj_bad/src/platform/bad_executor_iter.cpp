// Fixture: the executor header alone roots the ledger-feeding set — this
// file never includes metrics.hpp, yet its unordered walk must be flagged
// because anything the executor fans out feeds a ledger from whichever
// worker claimed its index.
#include <unordered_map>

#include "platform/concurrency.hpp"

namespace fx {

struct ClaimStats {
  std::unordered_map<int, long> claims_;

  long total() const {
    long sum = 0;
    for (const auto& kv : claims_) sum += kv.second;
    return sum;
  }
};

}  // namespace fx
