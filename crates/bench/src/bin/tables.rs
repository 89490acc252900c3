//! The paper's constant tables: Fig 1 (instruction energies), Fig 2
//! (radio component powers), Fig 3 (benchmarks), Fig 5 (strategies).
//!
//! Usage: `tables [fig1|fig2|fig3|fig5] [--json-out BENCH_tables.json]
//! [--archive DIR]`
//! — no figure argument prints all; `--json-out` always writes all
//! four tables machine-readably.
//!
//! The tables are constants from the paper — no scenario runs, so the
//! `--json-out` document is fully deterministic and its
//! `bench-history` baseline carries no `total_sim_instructions`
//! throughput denominator.

use jem_apps::all_workloads;
use jem_bench::obs::ObsArgs;
use jem_bench::print_table;
use jem_core::Strategy;
use jem_energy::{EnergyTable, InstrClass};
use jem_obs::Json;
use jem_radio::{ChannelClass, RadioComponent, RadioPowerTable};

fn fig1() {
    let t = EnergyTable::microsparc_iiep();
    let mut rows: Vec<Vec<String>> = InstrClass::ALL
        .iter()
        .map(|&c| {
            vec![
                c.name().to_string(),
                format!("{:.3} nJ", t.energy(c).nanojoules()),
            ]
        })
        .collect();
    rows.push(vec![
        "Main Memory".to_string(),
        format!("{:.2} nJ", t.main_memory.nanojoules()),
    ]);
    print_table(
        "Fig 1: energy consumption values for processor core and memory",
        &["Instruction Type", "Energy"],
        &rows,
    );
}

fn fig2() {
    let t = RadioPowerTable::wcdma();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in RadioComponent::ALL {
        if c == RadioComponent::PowerAmplifier {
            for class in ChannelClass::ALL {
                rows.push(vec![
                    format!("{} ({class})", c.name()),
                    format!("{}", t.power(c, class)),
                ]);
            }
        } else {
            rows.push(vec![
                c.name().to_string(),
                format!("{}", t.power(c, ChannelClass::C4)),
            ]);
        }
    }
    print_table(
        "Fig 2: power consumption values for communication components",
        &["Component", "Power"],
        &rows,
    );
}

fn fig3() {
    let rows: Vec<Vec<String>> = all_workloads()
        .iter()
        .map(|w| {
            vec![
                w.name().to_string(),
                w.description().to_string(),
                w.size_meaning().to_string(),
                format!("{:?}", w.sizes()),
            ]
        })
        .collect();
    print_table(
        "Fig 3: description of our benchmarks",
        &["App", "Description", "Size parameter", "Sizes"],
        &rows,
    );
}

fn fig5() {
    let rows: Vec<Vec<String>> = Strategy::ALL
        .iter()
        .map(|s| {
            vec![
                s.key().to_string(),
                if s.is_adaptive() { "dynamic" } else { "static" }.to_string(),
                s.compilation_desc().to_string(),
                s.execution_desc().to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig 5: summary of the static and dynamic (adaptive) strategies",
        &["Strategy", "Kind", "Compilation", "Execution"],
        &rows,
    );
}

fn tables_json() -> Json {
    let t = EnergyTable::microsparc_iiep();
    let mut fig1 = Vec::new();
    for &c in InstrClass::ALL.iter() {
        fig1.push(
            Json::object()
                .with("instr", c.name())
                .with("nj", t.energy(c).nanojoules()),
        );
    }
    fig1.push(
        Json::object()
            .with("instr", "Main Memory")
            .with("nj", t.main_memory.nanojoules()),
    );

    let r = RadioPowerTable::wcdma();
    let mut fig2 = Vec::new();
    for c in RadioComponent::ALL {
        if c == RadioComponent::PowerAmplifier {
            for class in ChannelClass::ALL {
                fig2.push(
                    Json::object()
                        .with("component", c.name())
                        .with("class", format!("{class:?}").as_str())
                        .with("watts", r.power(c, class).watts()),
                );
            }
        } else {
            fig2.push(
                Json::object()
                    .with("component", c.name())
                    .with("watts", r.power(c, ChannelClass::C4).watts()),
            );
        }
    }

    let fig3: Vec<Json> = all_workloads()
        .iter()
        .map(|w| {
            Json::object()
                .with("app", w.name())
                .with("description", w.description())
                .with("size_meaning", w.size_meaning())
                .with(
                    "sizes",
                    Json::Arr(w.sizes().iter().map(|&s| Json::from(s)).collect()),
                )
        })
        .collect();

    let fig5: Vec<Json> = Strategy::ALL
        .iter()
        .map(|s| {
            Json::object()
                .with("strategy", s.key())
                .with("kind", if s.is_adaptive() { "dynamic" } else { "static" })
                .with("compilation", s.compilation_desc())
                .with("execution", s.execution_desc())
        })
        .collect();

    Json::object()
        .with("figure", "tables")
        .with("fig1", Json::Arr(fig1))
        .with("fig2", Json::Arr(fig2))
        .with("fig3", Json::Arr(fig3))
        .with("fig5", Json::Arr(fig5))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(&args, &[ObsArgs::RESULT_FLAGS]);
    let obs = ObsArgs::parse(&args);
    match args.get(1).map(String::as_str) {
        Some("fig1") => fig1(),
        Some("fig2") => fig2(),
        Some("fig3") => fig3(),
        Some("fig5") => fig5(),
        _ => {
            fig1();
            fig2();
            fig3();
            fig5();
        }
    }
    obs.write_json(&tables_json());
    obs.archive_run(&args);
}
