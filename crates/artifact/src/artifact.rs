//! The versioned result artifact: what one experiment run produces.
//!
//! An [`Artifact`] is the machine-checkable record of one experiment —
//! the tables the paper's figure would plot, stamped with the
//! [`dva_engine::ENGINE_VERSION`] that produced them and the grid options
//! they were measured at. Every cell is a pre-formatted string (exactly
//! what the ASCII table prints), so the serialized form is byte-stable by
//! construction: no float re-formatting can drift between a write and a
//! later comparison.
//!
//! Three renderings exist, all derived from the same data:
//!
//! * [`Artifact::to_text`] — the human ASCII form, byte-identical to the
//!   pre-artifact experiment binaries' stdout.
//! * [`Artifact::render_json`] — the canonical versioned form
//!   ([`dva_json`] rendering, insertion-ordered, no whitespace). This is
//!   what `artifacts/golden/` pins and CI byte-diffs.
//! * [`Artifact::to_csv`] — a flat form for plotting tools.

use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_metrics::Table;
use dva_workloads::Scale;

/// One experiment's complete, versioned output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The experiment's registry name (`fig3`, `table1`, …).
    pub experiment: String,
    /// The [`dva_engine::ENGINE_VERSION`] that produced the results.
    pub engine_version: u32,
    /// The trace scale the workloads were generated at.
    pub scale: Scale,
    /// Whether the full latency grid was swept.
    pub full: bool,
    /// The experiment's sections, in print order.
    pub sections: Vec<Section>,
}

/// One headed table within an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// A stable machine-readable key (`instruction_queues`, `fig3`, …).
    pub key: String,
    /// The heading printed above the table (may span multiple lines).
    pub heading: String,
    /// The table data.
    pub table: TableData,
}

/// A table as plain data: a header row plus string rows, exactly what
/// [`dva_metrics::Table`] renders.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableData {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; every row has one cell per header.
    pub rows: Vec<Vec<String>>,
}

impl Section {
    /// Builds a section from a rendered [`Table`].
    pub fn new(key: impl Into<String>, heading: impl Into<String>, table: &Table) -> Section {
        Section {
            key: key.into(),
            heading: heading.into(),
            table: TableData::from_table(table),
        }
    }
}

impl TableData {
    /// Captures a [`Table`]'s headers and rows.
    pub fn from_table(table: &Table) -> TableData {
        TableData {
            headers: table.headers().to_vec(),
            rows: table.rows().to_vec(),
        }
    }

    /// Rebuilds the renderable [`Table`] (default alignment — which is
    /// what every experiment table uses).
    pub fn to_table(&self) -> Table {
        Table::from_parts(self.headers.iter().cloned(), self.rows.iter().cloned())
    }
}

impl Artifact {
    /// The standalone ASCII rendering: per section, its heading, a blank
    /// line, the aligned table, and a blank line before the next
    /// section's heading. Byte-identical to what the pre-artifact
    /// experiment binaries printed.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, section) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&section.heading);
            out.push_str("\n\n");
            out.push_str(&section.table.to_table().to_ascii());
            out.push('\n');
        }
        out
    }

    /// The sections' ASCII tables alone (no headings), separated by blank
    /// lines — what the `all` binary prints under its own `== … ==`
    /// headers. Each table already ends in a newline, so the `"\n\n"`
    /// separator yields one blank line between tables.
    pub fn tables_text(&self) -> String {
        let tables: Vec<String> = self
            .sections
            .iter()
            .map(|s| s.table.to_table().to_ascii())
            .collect();
        tables.join("\n\n")
    }

    /// The CSV rendering: a comment line identifying the artifact, then
    /// per section a `# section <key>` comment and the table as CSV,
    /// sections separated by blank lines.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "# artifact {} engine_version={} scale={} full={}\n",
            self.experiment,
            self.engine_version,
            self.scale.name(),
            self.full
        );
        for (i, section) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("# section {}\n", section.key));
            out.push_str(&section.table.to_table().to_csv());
        }
        out
    }
}

impl ToJson for TableData {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("headers", &self.headers);
            w.field("rows", &self.rows);
        })
    }
}

impl FromJson for TableData {
    fn read_json(r: &mut Reader<'_>) -> Result<TableData, JsonError> {
        r.object(|o| {
            let headers: Vec<String> = o.field("headers")?;
            let rows: Vec<Vec<String>> = o.field("rows")?;
            for row in &rows {
                if row.len() != headers.len() {
                    return Err(JsonError(format!(
                        "table row width {} != header width {}",
                        row.len(),
                        headers.len()
                    )));
                }
            }
            Ok(TableData { headers, rows })
        })
    }
}

impl ToJson for Section {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("key", self.key.as_str());
            w.field("heading", self.heading.as_str());
            w.field("table", &self.table);
        })
    }
}

impl FromJson for Section {
    fn read_json(r: &mut Reader<'_>) -> Result<Section, JsonError> {
        r.object(|o| {
            Ok(Section {
                key: o.field("key")?,
                heading: o.field("heading")?,
                table: o.field("table")?,
            })
        })
    }
}

impl ToJson for Artifact {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("experiment", self.experiment.as_str());
            w.field("engine_version", &self.engine_version);
            w.field("scale", self.scale.name());
            w.field("full", &self.full);
            w.field("sections", &self.sections);
        })
    }
}

impl FromJson for Artifact {
    fn read_json(r: &mut Reader<'_>) -> Result<Artifact, JsonError> {
        r.object(|o| {
            let scale = o.field_with("scale", Reader::str)?;
            Ok(Artifact {
                experiment: o.field("experiment")?,
                engine_version: u32::try_from(o.field::<u64>("engine_version")?)
                    .map_err(|_| JsonError("engine_version out of range".to_string()))?,
                scale: Scale::from_name(&scale)
                    .ok_or_else(|| JsonError(format!("unknown scale `{scale}`")))?,
                full: o.field("full")?,
                sections: o.field("sections")?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut table = Table::new(["Program", "cycles"]);
        table.row(["TRFD", "123"]);
        table.row(["BDNA", "45"]);
        Artifact {
            experiment: "demo".to_string(),
            engine_version: 6,
            scale: Scale::Quick,
            full: false,
            sections: vec![Section::new("demo", "Demo heading", &table)],
        }
    }

    #[test]
    fn json_round_trips() {
        let artifact = sample();
        let json = artifact.to_json();
        let back = Artifact::from_json(&json).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.to_json().render(), json.render());
    }

    /// Pins the exact artifact bytes. If this fails you changed the
    /// artifact format: regenerate `artifacts/golden/` (GOLDEN_UPDATE=1)
    /// and update this expectation.
    #[test]
    fn golden_artifact_format() {
        assert_eq!(
            sample().to_json().render(),
            "{\"experiment\":\"demo\",\"engine_version\":6,\"scale\":\"quick\",\
             \"full\":false,\"sections\":[{\"key\":\"demo\",\"heading\":\"Demo heading\",\
             \"table\":{\"headers\":[\"Program\",\"cycles\"],\
             \"rows\":[[\"TRFD\",\"123\"],[\"BDNA\",\"45\"]]}}]}"
        );
    }

    #[test]
    fn text_rendering_matches_the_println_layout() {
        let artifact = sample();
        let ascii = artifact.sections[0].table.to_table().to_ascii();
        assert_eq!(artifact.to_text(), format!("Demo heading\n\n{ascii}\n"));
        // A second section gets a separating blank line.
        let mut two = artifact.clone();
        two.sections.push(two.sections[0].clone());
        assert_eq!(
            two.to_text(),
            format!("Demo heading\n\n{ascii}\n\nDemo heading\n\n{ascii}\n")
        );
        assert_eq!(two.tables_text(), format!("{ascii}\n\n{ascii}"));
    }

    #[test]
    fn csv_names_the_artifact_and_sections() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("# artifact demo engine_version=6 scale=quick full=false\n"));
        assert!(csv.contains("# section demo\n"));
        assert!(csv.contains("TRFD,123\n"));
    }

    #[test]
    fn ragged_rows_are_rejected_on_decode() {
        let err = TableData::parse_json(r#"{"headers":["a","b"],"rows":[["1"]]}"#).unwrap_err();
        assert_eq!(err.0, "table row width 1 != header width 2");
    }
}
