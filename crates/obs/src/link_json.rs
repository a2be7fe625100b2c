//! Structural JSON for [`GlobalLink`].
//!
//! Diagnostic exports (the deadlock report, shim backlog tables) need links
//! in their JSON, and offline triage needs more than a string to match on.
//! The display string (`n3/R(0,1)->U+`) is emitted alongside for humans; the
//! structural fields are what a reader keys on.

use anton_core::chip::LocalLink;
use anton_core::trace::GlobalLink;

use crate::json::Json;

/// Serializes a link structurally, plus a human-readable `label`.
pub fn link_to_json(link: &GlobalLink) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("label".to_string(), Json::from(link.to_string()))];
    match link {
        GlobalLink::Local { node, link } => {
            pairs.push(("kind".to_string(), Json::from("local")));
            pairs.push(("node".to_string(), Json::from(u64::from(node.0))));
            pairs.push(("link".to_string(), local_link_to_json(link)));
        }
        GlobalLink::Torus { from, dir, slice } => {
            pairs.push(("kind".to_string(), Json::from("torus")));
            pairs.push(("from".to_string(), Json::from(u64::from(from.0))));
            pairs.push(("dir".to_string(), Json::from(dir.index())));
            pairs.push(("slice".to_string(), Json::from(u64::from(slice.0))));
        }
        GlobalLink::Direct { from, to } => {
            pairs.push(("kind".to_string(), Json::from("direct")));
            pairs.push(("from".to_string(), Json::from(u64::from(from.0))));
            pairs.push(("to".to_string(), Json::from(u64::from(to.0))));
        }
    }
    Json::Obj(pairs)
}

fn local_link_to_json(link: &LocalLink) -> Json {
    match link {
        LocalLink::Mesh { from, dir } => Json::obj([
            ("kind", Json::from("mesh")),
            ("u", Json::from(u64::from(from.u))),
            ("v", Json::from(u64::from(from.v))),
            ("dir", Json::from(dir.index())),
        ]),
        LocalLink::Skip { from } => Json::obj([
            ("kind", Json::from("skip")),
            ("u", Json::from(u64::from(from.u))),
            ("v", Json::from(u64::from(from.v))),
        ]),
        LocalLink::ChanToRouter(c) => Json::obj([
            ("kind", Json::from("chan_to_router")),
            ("chan", Json::from(c.index())),
        ]),
        LocalLink::RouterToChan(c) => Json::obj([
            ("kind", Json::from("router_to_chan")),
            ("chan", Json::from(c.index())),
        ]),
        LocalLink::EpToRouter(e) => Json::obj([
            ("kind", Json::from("ep_to_router")),
            ("ep", Json::from(u64::from(e.0))),
        ]),
        LocalLink::RouterToEp(e) => Json::obj([
            ("kind", Json::from("router_to_ep")),
            ("ep", Json::from(u64::from(e.0))),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use anton_core::chip::{ChanId, LocalEndpointId, MeshCoord, MeshDir};
    use anton_core::topology::{NodeId, Slice, TorusDir};

    use super::*;

    fn samples() -> Vec<GlobalLink> {
        let mut out = vec![
            GlobalLink::Torus {
                from: NodeId(5),
                dir: TorusDir::from_index(3),
                slice: Slice(1),
            },
            GlobalLink::Local {
                node: NodeId(0),
                link: LocalLink::Skip {
                    from: MeshCoord::new(2, 3),
                },
            },
            GlobalLink::Local {
                node: NodeId(7),
                link: LocalLink::EpToRouter(LocalEndpointId(11)),
            },
            GlobalLink::Local {
                node: NodeId(7),
                link: LocalLink::RouterToEp(LocalEndpointId(0)),
            },
        ];
        for dir in MeshDir::ALL {
            out.push(GlobalLink::Local {
                node: NodeId(1),
                link: LocalLink::Mesh {
                    from: MeshCoord::new(1, 2),
                    dir,
                },
            });
        }
        for idx in [0usize, 5, 11] {
            out.push(GlobalLink::Local {
                node: NodeId(2),
                link: LocalLink::ChanToRouter(ChanId::from_index(idx)),
            });
            out.push(GlobalLink::Local {
                node: NodeId(2),
                link: LocalLink::RouterToChan(ChanId::from_index(idx)),
            });
        }
        out
    }

    #[test]
    fn every_variant_round_trips() {
        for link in samples() {
            let text = link_to_json(&link).to_pretty_string();
            let parsed = Json::parse(&text).unwrap();
            fn field<'a>(j: &'a Json, k: &str) -> &'a Json {
                j.get(k).unwrap_or_else(|| panic!("no `{k}` in {j:?}"))
            }
            let uint = |j: &Json, k: &str| field(j, k).as_u64().unwrap();
            let kind = |j: &Json| field(j, "kind").as_str().unwrap().to_string();
            // The label matches the Display form.
            assert_eq!(
                field(&parsed, "label").as_str(),
                Some(link.to_string().as_str())
            );
            match link {
                GlobalLink::Torus { from, dir, slice } => {
                    assert_eq!(kind(&parsed), "torus");
                    assert_eq!(uint(&parsed, "from"), u64::from(from.0));
                    assert_eq!(uint(&parsed, "dir"), dir.index() as u64);
                    assert_eq!(uint(&parsed, "slice"), u64::from(slice.0));
                }
                GlobalLink::Local { node, link: local } => {
                    assert_eq!(kind(&parsed), "local");
                    assert_eq!(uint(&parsed, "node"), u64::from(node.0));
                    let lj = field(&parsed, "link");
                    let coord = |c: MeshCoord| {
                        assert_eq!(uint(lj, "u"), u64::from(c.u));
                        assert_eq!(uint(lj, "v"), u64::from(c.v));
                    };
                    let (name, index) = match local {
                        LocalLink::Mesh { from, dir } => {
                            coord(from);
                            ("mesh", Some(("dir", dir.index())))
                        }
                        LocalLink::Skip { from } => {
                            coord(from);
                            ("skip", None)
                        }
                        LocalLink::ChanToRouter(c) => ("chan_to_router", Some(("chan", c.index()))),
                        LocalLink::RouterToChan(c) => ("router_to_chan", Some(("chan", c.index()))),
                        LocalLink::EpToRouter(e) => {
                            ("ep_to_router", Some(("ep", usize::from(e.0))))
                        }
                        LocalLink::RouterToEp(e) => {
                            ("router_to_ep", Some(("ep", usize::from(e.0))))
                        }
                    };
                    assert_eq!(kind(lj), name);
                    if let Some((key, value)) = index {
                        assert_eq!(uint(lj, key), value as u64, "{link}");
                    }
                }
                GlobalLink::Direct { .. } => unreachable!("not sampled"),
            }
        }
    }
}
