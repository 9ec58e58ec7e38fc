// Separate workspace: never scanned, so this wall-clock read is silent.
fn main() {
    let _ = std::time::Instant::now();
}
