/**
 * @file
 * Seeded damage for the parser fuzz tests of the persisted formats
 * (campaign records in test_campaign.cc, the checkpoint in
 * test_checkpoint.cc).
 */

#ifndef ZMT_TESTS_MUTATE_HH
#define ZMT_TESTS_MUTATE_HH

#include <functional>
#include <string>

#include "common/random.hh"

namespace zmt
{

/** Every prefix of @p doc, then @p flips copies with 1-4 random bytes
 *  replaced; @p check must neither crash nor hang on any of them. */
inline void
mutateAll(const std::string &doc, uint64_t seed, unsigned flips,
          const std::function<void(const std::string &)> &check)
{
    for (size_t n = 0; n < doc.size(); ++n)
        check(doc.substr(0, n));
    Rng rng(seed);
    for (unsigned i = 0; i < flips; ++i) {
        std::string mutated = doc;
        for (uint64_t k = rng.range(1, 4); k > 0; --k)
            mutated[rng.below(mutated.size())] = char(rng.next());
        check(mutated);
    }
}

} // namespace zmt

#endif // ZMT_TESTS_MUTATE_HH
