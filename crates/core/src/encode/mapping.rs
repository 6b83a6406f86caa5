//! Mapping (component sizing) constraints: assign every used node exactly
//! one compatible library component.

use super::{new_encoding, Encoding, EncodeError};
use crate::template::NetworkTemplate;
use devlib::Library;
use lpmodel::{LinExpr, Model};

/// Creates the `u_i` and `m_ki` variables and the sizing constraints:
///
/// * `sum_k m_ki = u_i` — a used node is implemented by exactly one
///   component; an unused node by none;
/// * `u_i = 1` for fixed nodes (sensors and the sink).
///
/// # Errors
///
/// Returns [`EncodeError::NoComponents`] if a role present in the template
/// has no library component.
pub fn encode_mapping(
    template: &NetworkTemplate,
    library: &Library,
) -> Result<Encoding, EncodeError> {
    let mut enc = new_encoding(Model::minimize());
    for (i, node) in template.nodes().iter().enumerate() {
        let u = enc.model.binary(format!("u_{}", node.name));
        if node.role.is_fixed() {
            enc.model.fix(u, 1.0);
        }
        enc.node_used.push(u);
        let compatible: Vec<(usize, &devlib::Component)> =
            library.of_kind(node.role.device_kind()).collect();
        if compatible.is_empty() {
            return Err(EncodeError::NoComponents { role: node.role });
        }
        let mut vars = Vec::with_capacity(compatible.len());
        let mut sum = LinExpr::zero();
        for (k, comp) in compatible {
            let m = enc.model.binary(format!("m_{}_{}", comp.name, node.name));
            sum.add_term(m, 1.0);
            vars.push((k, m));
        }
        enc.model
            .add_named(format!("sizing_{}", i), (sum - u).eq(0.0));
        enc.map_vars.push(vars);
        let _ = i;
    }
    Ok(enc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::NodeRole;
    use devlib::catalog;
    use floorplan::Point;
    use milp::Config;

    fn tiny_template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(10.0, 0.0), NodeRole::Relay);
        t.add_node("sink", Point::new(20.0, 0.0), NodeRole::Sink);
        t
    }

    #[test]
    fn mapping_variables_created() {
        let t = tiny_template();
        let lib = catalog::zigbee_reference();
        let enc = encode_mapping(&t, &lib).unwrap();
        assert_eq!(enc.node_used.len(), 3);
        assert_eq!(enc.map_vars[0].len(), 5); // 5 sensor components
        assert_eq!(enc.map_vars[1].len(), 6); // 6 relay components
        assert_eq!(enc.map_vars[2].len(), 2); // 2 sinks
    }

    #[test]
    fn fixed_nodes_forced_used_and_sized() {
        let t = tiny_template();
        let lib = catalog::zigbee_reference();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        // minimize total cost: sensor picks free part, sink must pick one
        let mut cost = LinExpr::zero();
        for (i, vars) in enc.map_vars.iter().enumerate() {
            for &(k, v) in vars {
                cost.add_term(v, lib.get(k).unwrap().cost);
            }
            let _ = i;
        }
        enc.model.set_objective(cost);
        let sol = enc.model.solve(&Config::default());
        assert!(sol.is_optimal());
        // sensor + sink forced: cheapest sink is 80, sensor 0, relay unused
        assert!((sol.objective() - 80.0).abs() < 1e-6, "obj {}", sol.objective());
        assert!(sol.is_one(enc.node_used[0]));
        assert!(!sol.is_one(enc.node_used[1]));
        assert!(sol.is_one(enc.node_used[2]));
        // exactly one component on used nodes
        let picked: f64 = enc.map_vars[2].iter().map(|&(_, v)| sol.value(v)).sum();
        assert!((picked - 1.0).abs() < 1e-6);
        let none: f64 = enc.map_vars[1].iter().map(|&(_, v)| sol.value(v)).sum();
        assert!(none.abs() < 1e-6);
    }

    #[test]
    fn missing_role_errors() {
        let t = tiny_template();
        let lib = devlib::Library::new(vec![]).unwrap();
        assert!(matches!(
            encode_mapping(&t, &lib),
            Err(EncodeError::NoComponents { .. })
        ));
    }
}
