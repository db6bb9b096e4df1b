"""Tests for the SPICE-like MNA engine and the harvester equivalent circuit."""

import math

import numpy as np
import pytest

from repro.baselines import mna
from repro.baselines.mna import Circuit, MNATransientSimulator, TransientSettings
from repro.baselines.spice import SpiceLikeHarvesterSimulator, build_harvester_circuit
from repro.core.errors import ConfigurationError, ConvergenceError
from repro.harvester.config import paper_harvester


class TestCircuitConstruction:
    def test_duplicate_element_name(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "0", 10.0)
        with pytest.raises(ConfigurationError):
            circuit.add_resistor("R1", "b", "0", 10.0)

    def test_invalid_values(self):
        circuit = Circuit()
        with pytest.raises(ConfigurationError):
            circuit.add_resistor("R1", "a", "0", 0.0)
        with pytest.raises(ConfigurationError):
            circuit.add_capacitor("C1", "a", "0", -1.0)
        with pytest.raises(ConfigurationError):
            circuit.add_inductor("L1", "a", "0", 0.0)

    def test_node_names_and_element_count(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 10.0)
        circuit.add_resistor("R2", "out", "0", 10.0)
        assert circuit.node_names() == ["in", "out"]
        assert circuit.element_count() == 3

    def test_controlled_source_requires_known_branch(self):
        circuit = Circuit()
        circuit.add_ccvs("H1", "a", "0", "Lmissing", 2.0)
        with pytest.raises(ConfigurationError):
            MNATransientSimulator(circuit)


class TestTransientAnalysis:
    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 10.0)
        circuit.add_resistor("R1", "in", "out", 1000.0)
        circuit.add_resistor("R2", "out", "0", 1000.0)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-3))
        result = sim.run(1e-2)
        assert result["v(out)"].final() == pytest.approx(5.0, rel=1e-6)
        assert result["i(V1)"].final() == pytest.approx(-10.0 / 2000.0, rel=1e-6)

    def test_newton_cap_is_read_from_module_constant(self, monkeypatch):
        def run():
            circuit = Circuit()
            circuit.add_voltage_source("V1", "in", "0", 10.0)
            circuit.add_resistor("R1", "in", "out", 1000.0)
            circuit.add_resistor("R2", "out", "0", 1000.0)
            return MNATransientSimulator(
                circuit, TransientSettings(step_size=1e-3)
            ).run(1e-2)

        # a linear circuit needs a second iterate to see the change vanish
        monkeypatch.setattr(mna, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            run()
        monkeypatch.setattr(mna, "MAX_NEWTON_ITERATIONS", 2)
        assert run()["v(out)"].final() == pytest.approx(5.0, rel=1e-6)

    def test_rc_charging_matches_analytic(self):
        r, c = 1000.0, 1e-6
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 5.0)
        circuit.add_resistor("R1", "in", "out", r)
        circuit.add_capacitor("C1", "out", "0", c)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-5))
        t_end = 3 * r * c
        result = sim.run(t_end)
        expected = 5.0 * (1.0 - math.exp(-t_end / (r * c)))
        assert result["v(out)"].final() == pytest.approx(expected, rel=0.02)

    def test_rl_transient_matches_analytic(self):
        r, l = 10.0, 1e-3
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", r)
        circuit.add_inductor("L1", "out", "0", l)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-6))
        t_end = 2 * l / r
        result = sim.run(t_end)
        expected = (1.0 / r) * (1.0 - math.exp(-t_end * r / l))
        assert result["i(L1)"].final() == pytest.approx(expected, rel=0.02)

    def test_capacitor_initial_condition(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "0", 1000.0)
        circuit.add_capacitor("C1", "a", "0", 1e-3, initial_voltage=2.0)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-3))
        result = sim.run(0.1)
        expected = 2.0 * math.exp(-0.1 / 1.0)
        assert result["v(a)"].values[0] == pytest.approx(2.0, rel=1e-6)
        assert result["v(a)"].final() == pytest.approx(expected, rel=0.02)

    def test_floating_capacitor_initial_condition(self):
        # neither terminal is grounded: the operating point still holds
        # the capacitor at its initial voltage
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_capacitor("C1", "in", "out", 1e-6, initial_voltage=0.25)
        circuit.add_resistor("R1", "out", "0", 1000.0)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-5))
        result = sim.run(1e-4)
        assert result["v(out)"].values[0] == pytest.approx(0.75, rel=1e-12)
        assert result["v(out)"].values[1] < 0.75

    def test_diode_half_wave_rectifier(self):
        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "in", "0", lambda t: 2.0 * math.sin(2 * math.pi * 100.0 * t)
        )
        circuit.add_diode("D1", "in", "out", series_resistance=10.0)
        circuit.add_resistor("RL", "out", "0", 1e4)
        circuit.add_capacitor("CL", "out", "0", 1e-6)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=5e-5))
        result = sim.run(0.05)
        peak = float(np.max(result["v(out)"].values))
        # the output approaches the peak minus one diode drop and never goes
        # significantly negative
        assert 0.8 < peak < 2.0
        assert float(np.min(result["v(out)"].values)) > -0.2

    def test_vcvs_gain(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "0", 1000.0)
        circuit.add_vcvs("E1", "b", "0", "a", "0", gain=5.0)
        circuit.add_resistor("R2", "b", "0", 1000.0)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-3))
        result = sim.run(1e-2)
        assert result["v(b)"].final() == pytest.approx(5.0, rel=1e-6)

    def test_ccvs_transresistance(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "0", 100.0)  # i(V1) = -10 mA
        circuit.add_ccvs("H1", "b", "0", "V1", transresistance=200.0)
        circuit.add_resistor("R2", "b", "0", 1000.0)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-3))
        result = sim.run(1e-2)
        assert result["v(b)"].final() == pytest.approx(200.0 * (-0.01), rel=1e-6)

    def test_vccs_and_cccs(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 2.0)
        circuit.add_resistor("R1", "a", "0", 1000.0)
        circuit.add_vccs("G1", "0", "b", "a", "0", transconductance=1e-3)
        circuit.add_resistor("R2", "b", "0", 500.0)
        circuit.add_cccs("F1", "0", "c", "V1", gain=2.0)
        circuit.add_resistor("R3", "c", "0", 100.0)
        sim = MNATransientSimulator(circuit, TransientSettings(step_size=1e-3))
        result = sim.run(5e-3)
        # VCCS pushes 2 mA into node b across 500 ohm -> 1 V
        assert abs(result["v(b)"].final()) == pytest.approx(1.0, rel=1e-6)
        assert np.isfinite(result["v(c)"].final())

    def test_invalid_run_interval(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "0", 1.0)
        sim = MNATransientSimulator(circuit)
        with pytest.raises(ConfigurationError):
            sim.run(0.0)


class TestHarvesterEquivalentCircuit:
    def test_build_produces_expected_elements(self):
        circuit = build_harvester_circuit()
        names = circuit.node_names()
        assert "vm" in names and "vc" in names
        # 5 diodes, 5 stage caps + Cin + 3 supercap caps + Cmech
        assert len(circuit.diodes) == 5
        assert len(circuit.capacitors) == 10
        assert len(circuit.ccvs) == 2

    def test_short_transient_runs_and_stays_finite(self):
        config = paper_harvester().with_initial_storage_voltage(1.0)
        sim = SpiceLikeHarvesterSimulator(
            config, settings=TransientSettings(step_size=2e-4, record_interval=1e-3)
        )
        result = sim.run(0.02)
        assert np.all(np.isfinite(result["storage_voltage"].values))
        assert result["storage_voltage"].final() == pytest.approx(1.0, abs=0.2)
        assert "coil_current" in result.traces
        assert result.metadata["baseline"].startswith("spice-like")

    def test_storage_port_starts_at_the_operating_point(self):
        # the storage branches start charged and the output capacitor across
        # the storage port is not held: the first v(vc) sample is the branch
        # voltage less the drop across the parallel branch resistances (the
        # ESR), and the first step does not move it by more than a sliver
        config = paper_harvester()
        sc = config.supercapacitor
        esr = 1.0 / sum(
            1.0 / r
            for r in (
                sc.immediate_resistance_ohm,
                sc.delayed_resistance_ohm,
                sc.longterm_resistance_ohm,
            )
        )
        load = 100.0
        v_storage = config.initial_storage_voltage_v
        expected = v_storage * load / (load + esr)
        result = SpiceLikeHarvesterSimulator(config, load_resistance_ohm=load).run(1e-3)
        v = result["storage_voltage"].values
        # (to within the output diode's reverse leakage)
        assert v[0] == pytest.approx(expected, rel=1e-6)
        assert abs(v[1] - v[0]) < 0.01 * (v_storage - expected)

    def test_tuned_frequency_changes_mechanical_compliance(self):
        base = build_harvester_circuit(tuned_frequency_hz=None)
        tuned = build_harvester_circuit(tuned_frequency_hz=78.0)
        c_base = next(c for c in base.capacitors if c.name == "Cmech").capacitance
        c_tuned = next(c for c in tuned.capacitors if c.name == "Cmech").capacitance
        assert c_tuned < c_base  # stiffer spring -> smaller compliance
