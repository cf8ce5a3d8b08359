#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace csim
{

const char *
mesiName(Mesi m)
{
    switch (m) {
      case Mesi::invalid: return "I";
      case Mesi::shared: return "S";
      case Mesi::exclusive: return "E";
      case Mesi::modified: return "M";
      case Mesi::owned: return "O";
      case Mesi::forward: return "F";
    }
    return "?";
}

Cache::Cache(std::string name, const CacheGeometry &geom,
             ReplPolicy policy, std::uint64_t policy_seed,
             std::unique_ptr<IndexFunction> index)
    : name_(std::move(name)),
      numSets_(geom.numSets()),
      assoc_(geom.assoc),
      lines_(static_cast<std::size_t>(geom.numSets()) * geom.assoc),
      policy_(ReplacementPolicy::make(policy, geom.numSets(),
                                      geom.assoc, policy_seed)),
      indexFn_(std::move(index)),
      mruWay_(geom.numSets(), 0),
      setValid_(geom.numSets(), 0),
      occupied_((geom.numSets() + 63) / 64, 0)
{
    panic_if(numSets_ == 0, name_, ": zero sets");
    if ((numSets_ & (numSets_ - 1)) == 0) {
        setMask_ = numSets_ - 1;
        setMaskValid_ = true;
    }
}

CacheLine *
Cache::setBegin(unsigned set)
{
    return &lines_[static_cast<std::size_t>(set) * assoc_];
}

const CacheLine *
Cache::setBegin(unsigned set) const
{
    return &lines_[static_cast<std::size_t>(set) * assoc_];
}

template <typename CacheT>
auto
Cache::findImpl(CacheT &self, PAddr line_addr)
    -> decltype(self.setBegin(0u))
{
    panic_if(line_addr != lineAlign(line_addr),
             self.name_, ": unaligned line address");
    // Fast path 1: the line found by the previous lookup.
    {
        auto *last = &self.lines_[self.lastIdx_];
        if (self.lastAddr_ == line_addr && last->valid() &&
            last->addr == line_addr) {
            return last;
        }
    }
    const unsigned set = self.setIndex(line_addr);
    auto *base = self.setBegin(set);
    // Fast path 2: the way that hit most recently in this set.
    const unsigned mru = self.mruWay_[set];
    if (base[mru].valid() && base[mru].addr == line_addr) {
        self.lastIdx_ = static_cast<std::size_t>(set) * self.assoc_ +
                        mru;
        self.lastAddr_ = line_addr;
        return &base[mru];
    }
    for (unsigned w = 0; w < self.assoc_; ++w) {
        if (base[w].valid() && base[w].addr == line_addr) {
            self.mruWay_[set] = static_cast<std::uint8_t>(w);
            self.lastIdx_ =
                static_cast<std::size_t>(set) * self.assoc_ + w;
            self.lastAddr_ = line_addr;
            return &base[w];
        }
    }
    return nullptr;
}

CacheLine *
Cache::find(PAddr line_addr)
{
    return findImpl(*this, line_addr);
}

const CacheLine *
Cache::find(PAddr line_addr) const
{
    return findImpl(*this, line_addr);
}

void
Cache::touch(CacheLine &line)
{
    line.lastUse = ++useCounter_;
    if (policy_) {
        const auto idx =
            static_cast<std::size_t>(&line - lines_.data());
        policy_->onHit(static_cast<unsigned>(idx / assoc_),
                       static_cast<unsigned>(idx % assoc_));
    }
}

CacheLine &
Cache::insert(PAddr line_addr, Mesi state, Victim *victim)
{
    panic_if(state == Mesi::invalid,
             name_, ": inserting an invalid line");
    panic_if(find(line_addr),
             name_, ": inserting line already present: ", line_addr);
    const unsigned set_idx = setIndex(line_addr);
    CacheLine *set = setBegin(set_idx);
    CacheLine *slot = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!set[w].valid()) {
            slot = &set[w];
            break;
        }
    }
    if (slot) {
        ++valid_;
        if (setValid_[set_idx]++ == 0)
            occupied_[set_idx / 64] |= std::uint64_t{1}
                                       << (set_idx % 64);
    } else {
        if (policy_) {
            slot = &set[policy_->victimWay(set_idx)];
        } else {
            // Builtin policy: evict the least recently used way.
            slot = &set[0];
            for (unsigned w = 1; w < assoc_; ++w) {
                if (set[w].lastUse < slot->lastUse)
                    slot = &set[w];
            }
        }
        if (victim) {
            victim->valid = true;
            victim->line = *slot;
        }
    }
    *slot = CacheLine{};
    slot->addr = line_addr;
    slot->state = state;
    touch(*slot);
    // The way comes from pointer arithmetic within the set: fills
    // are frequent enough that an integer division here shows up in
    // the directory-churn perf kernel.
    const auto way = static_cast<unsigned>(slot - set);
    if (policy_)
        policy_->onFill(set_idx, way);
    mruWay_[set_idx] = static_cast<std::uint8_t>(way);
    lastIdx_ = static_cast<std::size_t>(set_idx) * assoc_ + way;
    lastAddr_ = line_addr;
    return *slot;
}

bool
Cache::invalidate(PAddr line_addr)
{
    if (CacheLine *line = find(line_addr)) {
        // 32-bit division: no cache has 2^32 slots, and this is the
        // flush path.
        const auto idx = static_cast<unsigned>(line - lines_.data());
        const unsigned set = idx / assoc_;
        if (policy_)
            policy_->onInvalidate(set, idx - set * assoc_);
        *line = CacheLine{};
        --valid_;
        if (--setValid_[set] == 0)
            occupied_[set / 64] &= ~(std::uint64_t{1} << (set % 64));
        return true;
    }
    return false;
}

void
Cache::clear()
{
    for (auto &line : lines_)
        line = CacheLine{};
    valid_ = 0;
    std::fill(setValid_.begin(), setValid_.end(), 0);
    std::fill(occupied_.begin(), occupied_.end(), 0);
    if (policy_)
        policy_->reset();
}

void
Cache::forEachLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (std::size_t word = 0; word < occupied_.size(); ++word) {
        for (std::uint64_t bits = occupied_[word]; bits;
             bits &= bits - 1) {
            const auto set = static_cast<unsigned>(
                word * 64 +
                static_cast<unsigned>(std::countr_zero(bits)));
            const CacheLine *base = setBegin(set);
            for (unsigned w = 0; w < assoc_; ++w) {
                if (base[w].valid())
                    fn(base[w]);
            }
        }
    }
}

} // namespace csim
