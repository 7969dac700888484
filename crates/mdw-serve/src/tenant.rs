//! Per-tenant admission: one bounded [`AdmissionController`] per tenant,
//! created on first sight.
//!
//! The paper's warehouse serves many consuming applications (SODA-style
//! search frontends, lineage tools, ad-hoc SPARQL) that must not starve
//! each other. The worker pool and its bounded queue (the storm valve in
//! [`crate::server`]) protect the *process*; these gates are the only
//! admission point in front of the warehouse, and they partition that
//! capacity per `X-Tenant`, so one chatty tenant sheds against its own
//! quota while the others keep flowing. Tenants inherit a
//! single configured quota shape; unknown tenants are lazily admitted with
//! the same shape rather than rejected — metadata consumers come and go.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mdw_core::admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, Overloaded, Permit, QueryClass,
};

/// The tenant used when a request carries no `X-Tenant` header.
pub const DEFAULT_TENANT: &str = "public";

/// Lazily-populated map of tenant name → admission gate.
pub struct TenantGates {
    config: AdmissionConfig,
    gates: Mutex<BTreeMap<String, AdmissionController>>,
}

impl TenantGates {
    /// Gates that hand every tenant a clone of `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        TenantGates { config, gates: Mutex::new(BTreeMap::new()) }
    }

    fn gate(&self, tenant: &str) -> AdmissionController {
        let mut gates = self.gates.lock().unwrap();
        gates
            .entry(tenant.to_string())
            .or_insert_with(|| AdmissionController::new(self.config.clone()))
            .clone()
    }

    /// Admits a request for `tenant`, waiting (bounded) in the tenant's
    /// FIFO queue. The returned [`Permit`] is RAII: dropping it — normally,
    /// on error, or during a panic unwind — frees the slot.
    pub fn admit(&self, tenant: &str, class: QueryClass) -> Result<Permit, Overloaded> {
        self.gate(tenant).admit(class)
    }

    /// Snapshot of `(tenant, stats, active, waiting)` for every tenant seen
    /// so far, sorted by name.
    pub fn stats(&self) -> Vec<(String, AdmissionStats, usize, usize)> {
        let gates = self.gates.lock().unwrap();
        gates
            .iter()
            .map(|(name, gate)| (name.clone(), gate.stats(), gate.active(), gate.waiting()))
            .collect()
    }

    /// Total permits currently held across all tenants. The chaos suite
    /// asserts this returns to zero after every injected wire failure —
    /// a leaked permit would eventually wedge its tenant.
    pub fn total_active(&self) -> usize {
        self.gates.lock().unwrap().values().map(|g| g.active()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gates(quota: usize) -> TenantGates {
        TenantGates::new(AdmissionConfig {
            max_queued: 0,
            max_wait: Duration::ZERO,
            ..AdmissionConfig::with_quotas(quota, quota)
        })
    }

    #[test]
    fn tenants_shed_independently() {
        let gates = gates(1);
        let held = gates.admit("risk", QueryClass::Search).unwrap();
        // risk is at quota…
        assert!(gates.admit("risk", QueryClass::Search).is_err());
        // …but finance has its own gate.
        let other = gates.admit("finance", QueryClass::Search).unwrap();
        assert_eq!(gates.total_active(), 2);
        drop(held);
        drop(other);
        assert_eq!(gates.total_active(), 0);
    }

    #[test]
    fn stats_cover_every_tenant_seen() {
        let gates = gates(1);
        let _p = gates.admit("a", QueryClass::Lineage).unwrap();
        let _ = gates.admit("a", QueryClass::Lineage);
        let _ = gates.admit("b", QueryClass::Sparql).unwrap();
        let stats = gates.stats();
        let names: Vec<_> = stats.iter().map(|(n, ..)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let (_, a_stats, a_active, _) = &stats[0];
        assert_eq!(a_stats.total_admitted(), 1);
        assert_eq!(a_stats.total_shed(), 1);
        assert_eq!(*a_active, 1);
    }
}
