/**
 * @file
 * The paper's evaluated configurations (§6): baseline pthread,
 * MSA-0, MCS-Tour, MSA/OMU-1, MSA/OMU-2, MSA-inf, and Ideal.
 */

#ifndef MISAR_SYSTEM_PRESETS_HH
#define MISAR_SYSTEM_PRESETS_HH

#include <string>
#include <vector>

#include "sim/config.hh"
#include "sync/sync_lib.hh"

namespace misar {
namespace sys {

/** One column of the paper's evaluation figures. */
enum class PaperConfig
{
    Baseline, ///< pthread software library, no sync instructions
    Msa0,     ///< hybrid library, always-FAIL hardware
    McsTour,  ///< MCS locks + tournament barrier software library
    MsaOmu1,  ///< hybrid library, 1-entry MSA with OMU
    MsaOmu2,  ///< hybrid library, 2-entry MSA with OMU
    MsaOmu4,  ///< hybrid library, 4-entry MSA with OMU (Fig 9 note)
    MsaInf,   ///< hybrid library, unbounded MSA
    Ideal,    ///< hybrid library, zero-latency oracle
    Spinlock, ///< raw test-and-set spinlock library (Figure 5)
    /** MSA/OMU-2 under the resilience fault campaign: message
     *  drops/dups/delays plus tile 0's slice decommissioned mid-run,
     *  with the watchdog and invariant checker armed. */
    MsaOmu2Faults,
    /** MSA/OMU-2 under the NoC fault campaign: end-to-end reliable
     *  delivery on, transient packet corruption throughout, and one
     *  mesh link killed mid-run (rerouted via up-down tables),
     *  with the watchdog and invariant checker armed. */
    MsaOmu2NocFaults,
    /** MSA/OMU-2 under the participant fault campaign: one core
     *  halted dead mid-run (wherever it happens to be — possibly
     *  holding a hardware lock inside a barrier), lease-based lock
     *  recovery armed, dead-core declaration reconfiguring barrier
     *  membership, with the watchdog and invariant checker armed. */
    MsaOmu2CoreFaults,
};

/** System configuration for @p pc with @p cores cores. */
SystemConfig configFor(PaperConfig pc, unsigned cores);

/** Synchronization library flavor used with @p pc. */
sync::SyncLib::Flavor flavorFor(PaperConfig pc);

/** Display name matching the paper's figures. */
const char *paperConfigName(PaperConfig pc);

/**
 * CLI preset names accepted by misar_sim --config and by campaign
 * specs: baseline, msa0, mcs-tour, spinlock, msa-omu, msa-inf,
 * ideal, msa-omu-faults, msa-omu2-nocfaults, msa-omu2-corefaults,
 * msa256, msa1024 (the scale-study meshes; these pin the core
 * count). One name per line from `misar_sim --list-presets`.
 */
const std::vector<std::string> &cliPresetNames();

/**
 * Resolve CLI preset @p name into a system configuration and sync
 * library flavor. @p entries sets msa.msaEntries (meaningful for the
 * MSA presets; ignored where the preset fixes it). Returns false on
 * an unknown name, leaving the outputs untouched. The returned
 * config is not yet validate()d — callers apply their own overrides
 * (seed, SMT, hwsync/omu toggles) first.
 */
bool cliPresetFor(const std::string &name, unsigned cores,
                  unsigned entries, SystemConfig &cfg,
                  sync::SyncLib::Flavor &flavor);

} // namespace sys
} // namespace misar

#endif // MISAR_SYSTEM_PRESETS_HH
