//! The short COP and design names: `sachi --cop`/`--design`, the wire
//! protocol's `job.cop`/`job.design`, the build-identity table and the
//! quality rows all spell them through `CopKind::key`/`DesignKind::key`
//! and read them back through `FromStr`. Changing one breaks every
//! client and committed table that holds it, so the whole set is pinned.

use sachi::prelude::{CopKind, DesignKind};

#[test]
fn keys_are_pinned_round_trip_and_every_alias_parses() {
    let cops: Vec<&str> = CopKind::EXTENDED.iter().map(|k| k.key()).collect();
    assert_eq!(
        cops,
        ["asset", "imgseg", "tsp", "md", "sat", "coloring", "sched"]
    );
    let designs: Vec<&str> = DesignKind::ALL.iter().map(|d| d.key()).collect();
    assert_eq!(designs, ["n1a", "n1b", "n2", "n3"]);

    for kind in CopKind::EXTENDED {
        assert_eq!(kind.key().parse::<CopKind>(), Ok(kind));
    }
    for design in DesignKind::ALL {
        assert_eq!(design.key().parse::<DesignKind>(), Ok(design));
    }

    for (alias, kind) in [
        ("asset-allocation", CopKind::AssetAllocation),
        ("segmentation", CopKind::ImageSegmentation),
        ("image-segmentation", CopKind::ImageSegmentation),
        ("traveling-salesman", CopKind::TravelingSalesman),
        ("molecular-dynamics", CopKind::MolecularDynamics),
        ("3sat", CopKind::SatThree),
        ("3-sat", CopKind::SatThree),
        ("color", CopKind::GraphColoring),
        ("graph-coloring", CopKind::GraphColoring),
        ("scheduling", CopKind::JobScheduling),
        ("job-scheduling", CopKind::JobScheduling),
    ] {
        assert_eq!(alias.parse::<CopKind>(), Ok(kind), "{alias}");
    }

    assert_eq!(
        "maxcut".parse::<CopKind>(),
        Err("unknown COP 'maxcut' (asset|imgseg|tsp|md|sat|coloring|sched)".to_string())
    );
    assert_eq!(
        "N3".parse::<DesignKind>(),
        Err("unknown design 'N3' (n1a|n1b|n2|n3)".to_string())
    );
}
