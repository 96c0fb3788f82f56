//! Fixture: EL014 in the advance family's own module (a counter, and a
//! captured frontier's counted `insert`); every closure in it runs per edge.

pub fn try_advance_adaptive<F: Fn(u32, u32) -> bool>(frontier: &[u32], output: &DenseFrontier, condition: F) -> usize {
    let scanned = Counter::new();
    let admitted = Counter::new();
    frontier.iter().for_each(|&v| {
        scanned.add(1);
        if condition(v, v + 1) {
            admitted.add(1); // rmw-ok: fixture waiver — this line must NOT be flagged
            output.insert(v + 1);
        }
    });
    scanned.get() + admitted.get()
}
