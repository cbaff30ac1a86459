//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p supersym --example reproduce_all           # standard size
//! cargo run --release -p supersym --example reproduce_all -- small  # quick pass
//! ```

use supersym::experiments;
use supersym::workloads::Size;

fn main() {
    let size = if std::env::args().any(|a| a == "small") {
        Size::Small
    } else {
        Size::Standard
    };
    println!("==========================================================");
    println!(" supersym: reproduction of Jouppi & Wall, ASPLOS 1989");
    println!(" workload size: {size:?}");
    println!("==========================================================\n");
    for (_, run) in experiments::ALL {
        println!("{}", run(size));
    }
}
