/**
 * @file
 * Top-level NEBULA architecture configuration (paper Sec. IV, Table III).
 *
 * No field selects an evaluation path: the chip has one layer walk
 * (solo inference is a batch of one) plus the preplanned SNN pipeline
 * chosen by topology, and the naive crossbar oracle those kernels are
 * pinned to lives in src/testing.
 */

#ifndef NEBULA_ARCH_CONFIG_HPP
#define NEBULA_ARCH_CONFIG_HPP

#include "circuit/component_db.hpp"
#include "common/units.hpp"

namespace nebula {

/** Chip-level architectural parameters. */
struct NebulaConfig
{
    /** Atomic crossbar dimension M (rows == cols). */
    int atomicSize = 128;

    /** Atomic crossbars per morphable tile (2 x 2). */
    int acsPerTile = 4;

    /** Morphable tiles per super-tile (2 x 2). */
    int tilesPerSupertile = 4;

    /** Pipeline stage / crossbar evaluation time (s). */
    double cycleTime = 110 * units::ns;

    /** Weight/activation precision (bits). */
    int precisionBits = 4;

    /**
     * Physical spare columns per atomic crossbar for defect repair
     * (0 = none provisioned). Spares are extra columns beyond the M
     * logical ones; faulty columns are remapped onto them at program
     * time (src/reliability). They cost area/utilization, not cycles.
     */
    int spareColsPerAc = 0;

    /** Mesh geometry (14 x 14 NCs: 14 ANN + 182 SNN + AUs). */
    int meshWidth = 14;
    int meshHeight = 14;
    int annCores = 14;
    int snnCores = 14 * 13;

    /**
     * Average ANN driver activity: mean activation level as a fraction
     * of full scale, used to scale crossbar read energy. Calibrated per
     * network from the functional simulator when available.
     */
    double defaultAnnActivity = 0.5;

    // -- Access-energy constants (32 nm class) ----------------------------
    //
    // The buffers and eDRAM are charged per access (their Table III
    // powers correspond to sustained-bandwidth operation) plus a small
    // always-on leakage while a layer's cores are active. This is what
    // lets the event-driven SNN mode's energy scale with spike activity
    // (paper Sec. VI-C1).

    /** eDRAM energy per bit moved. */
    double edramBitEnergy = 0.8e-12;

    /** Input/output SRAM buffer energy per bit moved. */
    double sramBitEnergy = 0.15e-12;

    /** Leakage per active ANN core (W). */
    double annCoreLeakage = 1.5e-3;

    /** Leakage per active SNN core (W); SNN cores are smaller. */
    double snnCoreLeakage = 0.8e-3;

    /**
     * Emit chip-level trace spans (layer evaluations, SNN timesteps,
     * ADC/NoC events) when a TraceSession is active. Off-path cost when
     * no session is active is one relaxed atomic load per span site.
     */
    bool traceChip = true;

    /**
     * Online ABFT integrity checking: program one checksum column per
     * crossbar and compare every evaluation's data-column current sum
     * against the input-weighted checksum expectation within an
     * ADC-quantization-derived tolerance. Violations are counted into
     * ChipStats::abftViolations (and surfaced per request by the
     * runtime); the checksum read-out's ohmic energy and ADC
     * conversion are billed with the rest of the array. Off (default)
     * keeps every output byte-identical to a chip without the column.
     */
    bool abft = false;

    /** Atomic crossbars per neural core. */
    int acsPerCore() const { return acsPerTile * tilesPerSupertile; }

    /** Max receptive field the NU hierarchy sums in-core (16M). */
    int maxInCoreRf() const { return acsPerCore() * atomicSize; }

    /** Crossbar cells per core. */
    long long cellsPerCore() const
    {
        return static_cast<long long>(acsPerCore()) * atomicSize *
               atomicSize;
    }
};

} // namespace nebula

#endif // NEBULA_ARCH_CONFIG_HPP
