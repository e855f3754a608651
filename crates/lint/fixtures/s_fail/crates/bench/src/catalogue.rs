pub const CATALOGUE: [Entry; 2] = [
    Entry { name: "demo", seed: 1 },
    Entry { name: "ghost", seed: 2 },
];

#[cfg(test)]
mod tests {
    const SCRATCH: Entry = Entry { name: "scratch", seed: 3 };
}
