// Fixture scenario catalogue: its one grid is documented.
pub const CATALOGUE: [Entry; 1] = [Entry { name: "demo", seed: 1 }];

#[cfg(test)]
mod tests {
    // Test-only entries need no documentation.
    const SCRATCH: Entry = Entry { name: "scratch", seed: 2 };
}
