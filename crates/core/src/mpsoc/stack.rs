//! The two-die MPSoC stack family: five layers, two jointly optimized
//! cavities.

use super::load::MpsocLoad;
use crate::design::{optimize_resumed, DesignWarmStart, OptimizationConfig};
use crate::transient::{
    sample_widths_um, CavityProfiles, EpochCandidate, ModulatedStack, ModulationController,
    ModulationPolicy,
};
use crate::{bridge, CoreError, Result};
use liquamod_floorplan::arch::Architecture;
use liquamod_floorplan::FluxGrid;
use liquamod_grid_sim::solver::SolverOptions;
use liquamod_grid_sim::{CavitySpec, Material, Stack, StackBuilder, StepperKind};
use liquamod_thermal_model::{
    ChannelColumn, HeatProfile, Model, ModelParams, SolveOptions, SolveWorkspace, WidthProfile,
};
use liquamod_units::Length;

/// Configuration of one MPSoC modulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocConfig {
    /// Model parameters (geometry, coolant, flow, width range).
    pub params: ModelParams,
    /// Optimizer configuration used at each modulation epoch.
    pub optimizer: OptimizationConfig,
    /// Channel columns across the flow (`nx`): the finite-volume stack's
    /// channel count and the rasterization width. Full physical fidelity is
    /// `die_width / pitch` (100 for the Niagara dies at the paper's 100 µm
    /// pitch); smaller values coarsen both models consistently.
    pub nx: usize,
    /// Cells along the flow direction (rasterization and stack).
    pub nz: usize,
    /// Channel groups per cavity for the §III model reduction ("combine two
    /// or more channels under a single set of top and bottom nodes"); the
    /// optimizer controls one width profile per group per cavity. Must
    /// divide `nx`.
    pub n_groups: usize,
    /// Backward-Euler time step, seconds.
    pub dt_seconds: f64,
    /// Linear-solver controls for each implicit step.
    pub solver: SolverOptions,
    /// Integrator backend for the closed-loop stepping (backward Euler by
    /// default; [`StepperKind::Exponential`] is the fast path).
    pub stepper: StepperKind,
}

impl MpsocConfig {
    /// A configuration sized for CI and the bench `mpsoc` mode: full
    /// 100-channel fidelity across the flow, a 0.5 mm cell grid along it,
    /// four channel groups per cavity and a 3-segment control profile.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            params: ModelParams::date2012(),
            optimizer: OptimizationConfig {
                segments: 3,
                mesh_intervals: 48,
                ..OptimizationConfig::fast()
            },
            nx: 100,
            nz: 22,
            n_groups: 4,
            dt_seconds: 2e-3,
            solver: SolverOptions::default(),
            stepper: StepperKind::BackwardEuler,
        }
    }

    /// The configuration with the per-channel coolant flow scaled by
    /// `scale` — the per-stack budget hook. Sweep variants use it for their
    /// flow axis, and the fleet layer ([`crate::fleet`]) drives it with
    /// allocator decisions: a stack's share of the shared pump budget *is*
    /// the scale handed to this hook, so nothing else in the stack family
    /// needs to know budgets exist. A scale of exactly 1.0 returns the
    /// configuration unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `scale` is not positive and finite.
    pub fn with_flow_scale(&self, scale: f64) -> Result<Self> {
        let mut config = self.clone();
        config.params.flow_rate_per_channel =
            crate::transient::scale_flow(self.params.flow_rate_per_channel, scale)?;
        Ok(config)
    }

    /// The configuration with the coolant inlet temperature offset by
    /// `delta_k` kelvin — the fault-injection hook for inlet excursions
    /// ([`crate::faults`]): a plant built from the offset configuration runs
    /// at the *true* (excursed) inlet while a fault-oblivious controller
    /// keeps optimizing against the nominal one. An offset of exactly 0.0
    /// returns the configuration bitwise unchanged (adding zero is a float
    /// identity), so healthy paths cannot drift.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `delta_k` is not finite or the
    /// offset inlet would be non-positive (absolute zero or below).
    pub fn with_inlet_offset(&self, delta_k: f64) -> Result<Self> {
        if !delta_k.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: format!("inlet offset must be finite, got {delta_k}"),
            });
        }
        let mut config = self.clone();
        config.params.inlet_temperature = self.params.inlet_temperature
            + liquamod_units::TemperatureDifference::from_kelvin(delta_k);
        if config.params.inlet_temperature.si() <= 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "inlet offset {delta_k} K pushes the inlet to {} K",
                    config.params.inlet_temperature.as_kelvin()
                ),
            });
        }
        Ok(config)
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.n_groups == 0 || self.nx == 0 || !self.nx.is_multiple_of(self.n_groups) {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "{} groups must evenly divide {} channel columns",
                    self.n_groups, self.nx
                ),
            });
        }
        if self.nz == 0 {
            return Err(CoreError::InvalidConfig {
                what: "nz must be ≥ 1".into(),
            });
        }
        if !(self.dt_seconds.is_finite() && self.dt_seconds > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: format!("dt must be positive, got {}", self.dt_seconds),
            });
        }
        Ok(())
    }
}

/// The two-die MPSoC stack family (see the [module docs](crate::mpsoc) for
/// the layer diagram): implements [`ModulatedStack`] so the stack-generic
/// [`ModulationController`] can drive Fig. 7 architectures through the
/// transient loop.
#[derive(Debug, Clone)]
pub struct MpsocModulated {
    config: MpsocConfig,
    solve: SolveOptions,
    die_width: Length,
    die_length: Length,
}

impl MpsocModulated {
    /// Builds the family for a die outline.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the configuration is inconsistent
    /// (groups not dividing columns, empty grid, non-positive `dt`).
    pub fn new(die_width: Length, die_length: Length, config: MpsocConfig) -> Result<Self> {
        config.validate()?;
        if !(die_width.si() > 0.0 && die_length.si() > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: "die extents must be positive".into(),
            });
        }
        Ok(Self {
            solve: SolveOptions::with_mesh_intervals(config.optimizer.mesh_intervals),
            die_width,
            die_length,
            config,
        })
    }

    /// [`MpsocModulated::new`] with the die outline taken from an
    /// architecture's top die (both dies share it by construction).
    ///
    /// # Errors
    ///
    /// Same as [`MpsocModulated::new`].
    pub fn for_arch(arch: &Architecture, config: MpsocConfig) -> Result<Self> {
        Self::new(arch.top_die().width(), arch.top_die().depth(), config)
    }

    /// The configuration this family was built from.
    #[must_use]
    pub fn config(&self) -> &MpsocConfig {
        &self.config
    }

    /// Wraps the family in a [`ModulationController`] using the config's
    /// clock and solver.
    ///
    /// # Errors
    ///
    /// Propagates [`ModulationController::for_stack`] validation.
    pub fn controller(
        self,
        policy: ModulationPolicy,
    ) -> Result<ModulationController<MpsocModulated>> {
        let dt = self.config.dt_seconds;
        let solver = self.config.solver.clone();
        let stepper = self.config.stepper.clone();
        Ok(ModulationController::for_stack(self, dt, solver, policy)?.with_stepper(stepper))
    }

    fn group_size(&self) -> usize {
        self.config.nx / self.config.n_groups
    }

    /// One group's per-channel heat profile from a die grid, scaled by
    /// `factor` (the same aggregation the steady scenario uses).
    fn group_heat(&self, grid: &FluxGrid, group: usize, factor: f64) -> HeatProfile {
        bridge::group_heat_profile(grid, group, self.group_size(), factor)
    }

    /// The joint two-cavity reduced-order model for one phase's workload:
    /// columns `0..n_groups` are cavity 1 (bottom die below it, top die
    /// above), columns `n_groups..2·n_groups` are cavity 2 (top die below,
    /// the unpowered cap above). The top die borders both cavities, so its
    /// heat is split evenly between them — total model power equals total
    /// die power, and one optimization couples all `2·n_groups` profiles
    /// through the shared objective and the Eq. 10 equal-pressure
    /// constraint (one pump feeds both cavities).
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn reduced_model(&self, load: &MpsocLoad) -> Result<Model> {
        let g = self.config.n_groups;
        let gs = self.group_size();
        let mut columns = Vec::with_capacity(2 * g);
        for group in 0..g {
            columns.push(
                ChannelColumn::new(WidthProfile::uniform(self.config.params.w_max))
                    .with_group_size(gs)
                    .with_heat_bottom(self.group_heat(&load.bottom, group, 1.0))
                    .with_heat_top(self.group_heat(&load.top, group, 0.5)),
            );
        }
        for group in 0..g {
            columns.push(
                ChannelColumn::new(WidthProfile::uniform(self.config.params.w_max))
                    .with_group_size(gs)
                    .with_heat_bottom(self.group_heat(&load.top, group, 0.5)),
            );
        }
        Ok(Model::new(
            self.config.params.clone(),
            self.die_length,
            columns,
        )?)
    }

    fn check_load(&self, load: &MpsocLoad) -> Result<()> {
        if load.dims() != (self.config.nx, self.config.nz) {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "load grid {:?} does not match the configured {}x{}",
                    load.dims(),
                    self.config.nx,
                    self.config.nz
                ),
            });
        }
        Ok(())
    }
}

impl ModulatedStack for MpsocModulated {
    type Load = MpsocLoad;

    fn uniform_widths(&self) -> CavityProfiles {
        vec![vec![WidthProfile::uniform(self.config.params.w_max); self.config.n_groups]; 2]
    }

    fn load_is_idle(&self, load: &MpsocLoad) -> bool {
        load.max_flux_w_per_cm2() <= 0.0
    }

    fn build_stack(&self, load: &MpsocLoad, widths: &CavityProfiles) -> Result<Stack> {
        self.check_load(load)?;
        let params = &self.config.params;
        let cavity = |profiles: &[WidthProfile]| CavitySpec {
            height: params.h_c,
            coolant: params.coolant.clone(),
            flow_rate_per_channel: params.flow_rate_per_channel,
            nusselt: params.nusselt,
            wall_material: Material::silicon(),
            widths: bridge::cavity_widths_from_profiles(
                profiles,
                self.group_size(),
                self.die_length,
                self.config.nz,
            ),
        };
        let stack = StackBuilder::new(
            self.die_width,
            self.die_length,
            self.config.nx,
            self.config.nz,
        )
        .inlet_temperature(params.inlet_temperature)
        .silicon_layer("bottom-die", params.h_si)
        .powered_by(bridge::power_map_from_grid(&load.bottom))
        .microchannel_cavity_with(cavity(&widths[0]))
        .silicon_layer("top-die", params.h_si)
        .powered_by(bridge::power_map_from_grid(&load.top))
        .microchannel_cavity_with(cavity(&widths[1]))
        .silicon_layer("cap", params.h_si)
        .build()?;
        Ok(stack)
    }

    fn optimize_epoch(
        &self,
        load: &MpsocLoad,
        incumbent: &CavityProfiles,
        warm: Option<&DesignWarmStart>,
        ws: &mut SolveWorkspace,
    ) -> Result<EpochCandidate> {
        self.check_load(load)?;
        let model = self.reduced_model(load)?;
        let (outcome, next_warm) = optimize_resumed(&model, &self.config.optimizer, warm)?;
        let gradient_k = outcome.solution.thermal_gradient().as_kelvin();
        // Score the incumbent on the same model (columns in cavity-major
        // order, matching the candidate split below).
        let mut incumbent_model = model;
        for (c, profile) in incumbent.iter().flatten().enumerate() {
            incumbent_model.set_width_profile(c, profile.clone())?;
        }
        let incumbent_gradient_k = incumbent_model
            .solve_with(&self.solve, ws)?
            .thermal_gradient()
            .as_kelvin();
        // Split the jointly optimized columns back into per-cavity profiles.
        let g = self.config.n_groups;
        let mut widths = outcome.widths;
        let second = widths.split_off(g);
        Ok(EpochCandidate {
            widths: vec![widths, second],
            warm: next_warm,
            gradient_k,
            incumbent_gradient_k,
            evaluations: outcome.evaluations,
            adjoint_solves: outcome.adjoint_solves,
            forward_solves: outcome.forward_solves,
        })
    }

    fn sample_widths_um(&self, widths: &CavityProfiles) -> Vec<Vec<f64>> {
        sample_widths_um(
            widths.iter().flatten(),
            self.config.optimizer.segments,
            self.die_length,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_floorplan::{arch, PowerLevel};

    /// A deliberately coarse configuration for unit tests: 20 columns in 2
    /// groups, 11 cells along the flow.
    pub(super) fn tiny_config() -> MpsocConfig {
        MpsocConfig {
            optimizer: OptimizationConfig {
                segments: 2,
                mesh_intervals: 32,
                ..OptimizationConfig::fast()
            },
            nx: 20,
            nz: 11,
            n_groups: 2,
            ..MpsocConfig::fast()
        }
    }

    #[test]
    fn config_validation() {
        assert!(MpsocConfig {
            n_groups: 3,
            ..tiny_config()
        }
        .validate()
        .is_err());
        assert!(MpsocConfig {
            nz: 0,
            ..tiny_config()
        }
        .validate()
        .is_err());
        assert!(MpsocConfig {
            dt_seconds: -1.0,
            ..tiny_config()
        }
        .validate()
        .is_err());
        assert!(MpsocModulated::for_arch(&arch::arch1(), tiny_config()).is_ok());
    }

    #[test]
    fn stack_has_five_layers_and_conserves_power() {
        let family = MpsocModulated::for_arch(&arch::arch1(), tiny_config()).unwrap();
        let load = MpsocLoad::from_arch(&arch::arch1(), PowerLevel::Peak, 20, 11);
        let stack = family.build_stack(&load, &family.uniform_widths()).unwrap();
        assert_eq!(stack.n_layers(), 5);
        assert_eq!(stack.dims(), (20, 11));
        assert_eq!(
            stack.layer_names(),
            vec!["bottom-die", "<cavity>", "top-die", "<cavity>", "cap"]
        );
        let expected = load.total_power().as_watts();
        let got = stack.total_power().as_watts();
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "stack {got} W vs dies {expected} W"
        );
        // A mismatched raster is rejected.
        let coarse = MpsocLoad::from_arch(&arch::arch1(), PowerLevel::Peak, 10, 11);
        assert!(family
            .build_stack(&coarse, &family.uniform_widths())
            .is_err());
    }

    #[test]
    fn reduced_model_conserves_power_and_splits_the_shared_die() {
        let family = MpsocModulated::for_arch(&arch::arch1(), tiny_config()).unwrap();
        let load = MpsocLoad::from_arch(&arch::arch1(), PowerLevel::Peak, 20, 11);
        let model = family.reduced_model(&load).unwrap();
        assert_eq!(model.columns().len(), 4, "2 groups x 2 cavities");
        let model_power: f64 = model
            .columns()
            .iter()
            .map(|c| {
                c.heat_top().total_power(model.length()).as_watts()
                    + c.heat_bottom().total_power(model.length()).as_watts()
            })
            .sum();
        let die_power = load.total_power().as_watts();
        assert!(
            (model_power - die_power).abs() / die_power < 1e-9,
            "model {model_power} W vs dies {die_power} W"
        );
        // Cavity 2's columns carry only (half) the top die: no top-layer heat.
        let g = 2;
        for c in &model.columns()[g..] {
            assert_eq!(c.heat_top().total_power(model.length()).as_watts(), 0.0);
        }
    }

    #[test]
    fn epoch_candidate_beats_uniform_incumbent() {
        let family = MpsocModulated::for_arch(&arch::arch1(), tiny_config()).unwrap();
        let load = MpsocLoad::from_arch(&arch::arch1(), PowerLevel::Peak, 20, 11);
        let mut ws = SolveWorkspace::new();
        let cand = family
            .optimize_epoch(&load, &family.uniform_widths(), None, &mut ws)
            .unwrap();
        assert_eq!(cand.widths.len(), 2);
        assert_eq!(cand.widths[0].len(), 2);
        assert!(cand.evaluations > 0);
        assert!(
            cand.gradient_k <= cand.incumbent_gradient_k,
            "optimizing from the uniform incumbent must not be worse: \
             {} K vs {} K",
            cand.gradient_k,
            cand.incumbent_gradient_k
        );
        // Samples cover every (cavity, group) pair.
        let sampled = family.sample_widths_um(&cand.widths);
        assert_eq!(sampled.len(), 4);
        assert_eq!(sampled[0].len(), 2);
    }
}
