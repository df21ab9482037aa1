//! The poller's descriptors are owned: dropping a `Poller` closes its
//! epoll descriptor and dropping a `Wakeup` closes both ends of its
//! socket pair. This is its own test binary, with one test, so no other
//! test's sockets move the process's descriptor count while it runs.

use esharp_serve::poller::{Poller, Wakeup};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

#[test]
fn pollers_and_wakeups_close_their_descriptors_on_drop() {
    let before = open_descriptors();
    for _ in 0..1_000 {
        drop(Poller::new().expect("poller"));
        drop(Wakeup::new().expect("wakeup"));
    }
    assert_eq!(open_descriptors(), before, "descriptors leaked");
}
