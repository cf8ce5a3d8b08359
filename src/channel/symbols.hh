/**
 * @file
 * Multi-bit symbol channel (paper §VIII-D, Figure 11).
 *
 * All four (location, coherence state) combination pairs are used at
 * once: each pair encodes one of four 2-bit symbol values. Symbol
 * boundaries are signalled by the trojan going quiet, so the spy's
 * reload falls into the out-of-band (DRAM) latency band — a fifth,
 * clearly distinct level. The scheme runs as the session's symbols link
 * (channel/session.hh, LinkKind::symbols).
 */

#ifndef COHERSIM_CHANNEL_SYMBOLS_HH
#define COHERSIM_CHANNEL_SYMBOLS_HH

#include <vector>

#include "channel/channel.hh"
#include "common/bit_string.hh"

namespace csim
{

/** Protocol parameters specific to symbol transmission. */
struct SymbolParams
{
    /** Sample periods a symbol's combination is held. */
    int cs = 3;
    /** Quiet sample periods the trojan holds between symbols. */
    int cbSym = 3;
    /**
     * Consecutive quiet samples after which the spy commits the
     * current symbol; kept below cbSym so jittered sampling never
     * misses a boundary.
     */
    int commitQuiet() const { return cbSym > 1 ? cbSym - 1 : 1; }
    /** Consecutive quiet samples ending the session. */
    int endN = 14;
};

/** Bits encoded per symbol (four combinations -> 2 bits). */
inline constexpr int bitsPerSymbol = 2;

/** Map a 2-bit symbol value to the combination that encodes it. */
Combo symbolCombo(int symbol);

/** Result of one symbol-channel transmission. */
struct SymbolReport
{
    std::vector<int> sentSymbols;
    std::vector<int> receivedSymbols;
    BitString sent;
    BitString received;
    ChannelMetrics metrics;
    TrojanResult trojan;
    std::vector<SpySample> trace;  //!< raw latencies (Fig. 11)
    bool completed = false;
};

} // namespace csim

#endif // COHERSIM_CHANNEL_SYMBOLS_HH
