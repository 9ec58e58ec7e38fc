// Ordinary member: scanned, so this wall-clock read is a finding.
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now() // line 3: finding
}
