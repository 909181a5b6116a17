//! Every metric the stack registers is documented.
//!
//! One small workload drives each layer that reports into the global
//! `cpma-obs` registry: `Cpma` on the point and batch paths, a
//! `ShardedSet` through a skew rebalance, a durable `Combiner` with a
//! checkpoint, and a `Service` over loopback. Every name in the
//! resulting registry snapshot must then appear in backticks in
//! `docs/OBSERVABILITY.md`, so a new metric cannot ship without a
//! catalog row.

use cpma::prelude::*;
use std::collections::BTreeSet;

fn drive_every_layer() {
    // Cpma: a bulk load and a mixed pipeline batch, then dense point
    // inserts that redistribute a subtree and write bitmap leaves.
    let mut cpma = Cpma::new();
    let mut base: Vec<u64> = (0..50_000u64).map(|i| i << 20).collect();
    cpma.insert_batch(&mut base, true);
    let mut ops: Vec<BatchOp<u64>> = (0..2_000u64)
        .map(|i| {
            if i % 2 == 0 {
                BatchOp::Insert((i << 20) + 1)
            } else {
                BatchOp::Remove(i << 20)
            }
        })
        .collect();
    cpma.apply_batch_sorted(normalize_ops(&mut ops));
    for k in 2..2_000u64 {
        cpma.insert(k);
    }
    cpma.remove_batch(&mut (2..1_000u64).collect::<Vec<_>>(), true);

    // ShardedSet: dense keys land in one shard and force a rebalance.
    let mut sharded: ShardedSet<Cpma, 4> = BatchSet::new_set();
    sharded.insert_batch_sorted(&(0..4_096u64).collect::<Vec<_>>());
    assert_eq!(sharded.rebalance_stats().skew_rebalances, 1);

    // Durable combiner: WAL appends, fsyncs, a checkpoint, a snapshot.
    let dir = std::env::temp_dir().join(format!("cpma-metric-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (combiner, _) = Combiner::<ShardedSet<Cpma, 4>>::open_durable(
            CombinerConfig::default(),
            WalConfig::new(&dir),
        )
        .unwrap();
        combiner.insert_many(&(0..1_000u64).collect::<Vec<_>>());
        combiner.remove(7);
        assert_eq!(combiner.snapshot().len(), 999);
        combiner.checkpoint().unwrap();
        combiner.insert(7);
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // Service over loopback: a write burst and every read request.
    let (mut service, _) =
        Service::serve(ShardedSet::<Cpma, 4>::new_set(), ServiceConfig::default()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let burst: Vec<BatchOp<u64>> = (0..500u64).map(BatchOp::Insert).collect();
    client.mutate_burst(&burst).unwrap();
    assert!(client.contains(3).unwrap());
    assert_eq!(
        client.contains_batch(&[1, 1_000]).unwrap(),
        vec![true, false]
    );
    assert_eq!(client.range_sum(0, 9).unwrap(), 45);
    assert_eq!(client.scan(10, 3).unwrap(), vec![10, 11, 12]);
    drop(client);
    service.shutdown();
}

/// Every backticked token in the catalog.
fn documented_names() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .unwrap();
    doc.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_registered_metric_is_in_the_catalog() {
    drive_every_layer();
    let documented = documented_names();
    let registered: Vec<String> = cpma::obs::global()
        .snapshot()
        .metrics
        .into_iter()
        .map(|m| m.name)
        .collect();
    for layer in [
        "pma.",
        "cpma.codec.",
        "store.",
        "combiner.",
        "persist.",
        "service.",
    ] {
        assert!(
            registered.iter().any(|n| n.starts_with(layer)),
            "the workload registered no `{layer}*` metric: {registered:?}"
        );
    }
    let missing: Vec<&String> = registered
        .iter()
        .filter(|n| !documented.contains(*n))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}
