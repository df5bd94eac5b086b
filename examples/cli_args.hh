/**
 * @file
 * Strict decimal flag values for the misar_sim and misar_campaign
 * command lines. atoi-style parsing silently turns "10x" into 10,
 * "abc" into 0 and "-1" into a huge unsigned; these parsers fail
 * loudly instead, naming the flag.
 */

#ifndef MISAR_EXAMPLES_CLI_ARGS_HH
#define MISAR_EXAMPLES_CLI_ARGS_HH

#include <cctype>
#include <climits>
#include <cstdint>

#include "sim/logging.hh"

namespace misar {
namespace cli {

/**
 * Strict "A:B@C"-style kill-spec parser: @p n plain decimal fields
 * separated by exactly the characters of @p seps, nothing else.
 * sscanf alone is too lax here — it accepts trailing garbage
 * ("1:2@3junk") and negated values ("-1" wraps to a huge unsigned).
 */
inline bool
parseKillFields(const char *v, const char *seps, std::uint64_t *out,
                unsigned n)
{
    const char *p = v;
    for (unsigned f = 0; f < n; ++f) {
        if (f > 0) {
            if (*p != seps[f - 1])
                return false;
            ++p;
        }
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            return false;
        std::uint64_t val = 0;
        while (std::isdigit(static_cast<unsigned char>(*p))) {
            const unsigned d = static_cast<unsigned>(*p - '0');
            if (val > (UINT64_MAX - d) / 10)
                return false; // overflow
            val = val * 10 + d;
            ++p;
        }
        out[f] = val;
    }
    return *p == '\0';
}

/**
 * Strict decimal value of flag @p opt, positive unless
 * @p allow_zero, and at most @p max; anything else is fatal().
 */
inline std::uint64_t
parseDecimalArg(const char *opt, const char *v, bool allow_zero = false,
                std::uint64_t max = UINT64_MAX)
{
    std::uint64_t val = 0;
    if (!parseKillFields(v, "", &val, 1) || (val == 0 && !allow_zero))
        fatal("%s expects a %sdecimal number, got '%s'", opt,
              allow_zero ? "" : "positive ", v);
    if (val > max)
        fatal("%s %s is out of range", opt, v);
    return val;
}

/** parseDecimalArg() for a flag stored as unsigned. */
inline unsigned
parseUnsignedArg(const char *opt, const char *v, bool allow_zero = false)
{
    return static_cast<unsigned>(parseDecimalArg(opt, v, allow_zero,
                                                 UINT_MAX));
}

} // namespace cli
} // namespace misar

#endif // MISAR_EXAMPLES_CLI_ARGS_HH
