//! Per-page kernel state stays small at cluster scale. Every mapped page
//! costs a frame record, a page-table entry and, once pinned, a pin-down
//! entry; the three tables are indexed by the page or frame number, so
//! together they hold well under 64 B per page once every port is open.

use std::cell::RefCell;
use std::rc::Rc;

use suca_cluster::ClusterSpec;
use suca_mem::AddressSpace;

const NODES: u32 = 128;

#[test]
fn an_open_port_costs_at_most_64_bytes_of_table_per_mapped_page() {
    let cluster = ClusterSpec::dawning3000(NODES)
        .with_trace_sampling(0)
        .build();
    let spaces: Rc<RefCell<Vec<AddressSpace>>> = Rc::default();
    for node in 0..NODES {
        let spaces = spaces.clone();
        cluster.spawn_process(node, format!("open{node}"), move |ctx, env| {
            let _port = env.open_port(ctx);
            spaces.borrow_mut().push(env.proc.space.clone());
        });
    }
    cluster.sim.run();
    let spaces = spaces.borrow();
    assert_eq!(spaces.len(), NODES as usize);

    let pool_pages = cluster.nodes[0].bcl.config().system_pool.buffers as usize;
    let mut pages = 0;
    let mut bytes = spaces.iter().map(AddressSpace::table_bytes).sum::<usize>();
    for node in &cluster.nodes {
        assert_eq!(
            node.bcl.kmod.pinned_pages(),
            pool_pages,
            "the pool is pinned"
        );
        pages += node.os.memory().allocated_frames() as usize;
        bytes += node.os.memory().table_bytes() + node.bcl.kmod.pin_table_bytes();
    }
    assert!(pages >= NODES as usize * pool_pages);
    let per_page = bytes as f64 / pages as f64;
    assert!(
        per_page <= 64.0,
        "{per_page:.1} B per page ({bytes} B, {pages} pages)"
    );
}
