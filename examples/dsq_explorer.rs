//! DSQ — Database-Supported Web Queries (paper §1).
//!
//! The user searches the Web for "scuba diving"; DSQ uses the database to
//! *explain* the search: which states, which movies — and which
//! state/movie pairs — co-occur with the phrase on the Web.
//!
//! ```sh
//! cargo run --release --example dsq_explorer
//! ```
//!
//! The printed report is pinned by `tests/golden/dsq_explorer.txt`.

use std::fmt::Write;
use wsqdsq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", report()?);
    Ok(())
}

/// The example's whole output.
pub fn report() -> Result<String, Box<dyn std::error::Error>> {
    let mut wsq = Wsq::open_in_memory(WsqConfig::default())?;
    wsq.load_reference_data()?;
    let dsq = DsqExplorer::new(&wsq, "AV")?;
    let phrase = "scuba diving";
    let mut out = String::new();
    writeln!(out, "DSQ probe phrase: {phrase:?}\n")?;

    let corr = dsq.correlate(&mut wsq, phrase, "States", "Name")?;
    writeln!(out, "States most correlated with {phrase:?}:")?;
    for c in corr.iter().take(5) {
        writeln!(out, "  {:<16} {}", c.term, c.count)?;
    }

    let corr = dsq.correlate(&mut wsq, phrase, "Movies", "Title")?;
    writeln!(out, "\nMovies most correlated with {phrase:?}:")?;
    for c in corr.iter().take(5) {
        writeln!(out, "  {:<16} {}", c.term, c.count)?;
    }

    let pairs =
        dsq.correlate_pairs(&mut wsq, phrase, ("States", "Name"), ("Movies", "Title"), 3)?;
    writeln!(
        out,
        "\nState/movie/{phrase:?} triples (the paper's 'underwater thriller filmed in Florida'):"
    )?;
    for p in pairs.iter().take(5) {
        writeln!(out, "  {:<12} × {:<14} {}", p.a, p.b, p.count)?;
    }

    let stats = wsq.pump().stats();
    writeln!(
        out,
        "\n{} concurrent searches issued, peak in-flight {}",
        stats.launched, stats.peak_in_flight
    )?;
    Ok(out)
}
