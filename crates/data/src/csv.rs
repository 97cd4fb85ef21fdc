//! Minimal CSV persistence for datasets and experiment results.
//!
//! Numeric-only, comma-separated, one header row. Implemented by hand
//! rather than pulling a CSV dependency: the workspace builds offline, and
//! its only external crates are the vendored `rand`, `rayon` and
//! `proptest`.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::dataset::Dataset;
use crate::stream::{drain, CsvStreamSource};
#[cfg(doc)]
use crate::DataError;
use crate::Result;

/// Writes a dataset as CSV: header `feature..., label`, one row per tuple.
///
/// # Errors
/// I/O failures surface as [`DataError::Io`].
pub fn write_dataset(data: &Dataset, path: &Path) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write_dataset_to(data, &mut w)
}

/// Writes a dataset as CSV to any writer.
///
/// # Errors
/// I/O failures surface as [`DataError::Io`].
pub fn write_dataset_to(data: &Dataset, w: &mut impl Write) -> Result<()> {
    for (i, name) in data.feature_names().iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "{name}")?;
    }
    writeln!(w, ",label")?;
    for (x, y) in data.tuples() {
        for v in x {
            write!(w, "{v},")?;
        }
        writeln!(w, "{y}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a dataset from a CSV file produced by [`write_dataset`] (or any
/// numeric CSV whose last column is the label).
///
/// # Errors
/// [`DataError::Io`] / [`DataError::Parse`] on malformed content.
pub fn read_dataset(path: &Path) -> Result<Dataset> {
    read_dataset_from(File::open(path)?)
}

/// Reads a dataset from any reader; see [`read_dataset`]. The rows come
/// from a [`CsvStreamSource`] drained whole, so the dialect, the parse
/// and its error lines are the streaming reader's.
///
/// # Errors
/// [`DataError::Io`] / [`DataError::Parse`] on malformed content;
/// [`DataError::EmptyDataset`] when the file has no data rows.
pub fn read_dataset_from(r: impl Read) -> Result<Dataset> {
    let mut source = CsvStreamSource::from_reader(r)?;
    let names = source.feature_names().to_vec();
    let (x, y) = drain(&mut source)?;
    Dataset::with_names(x, y, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataError;
    use fm_linalg::Matrix;

    fn sample() -> Dataset {
        let x = Matrix::from_rows(&[&[0.25, -1.5], &[3.0, 0.0]]).unwrap();
        Dataset::with_names(x, vec![1.0, -1.0], vec!["a".into(), "b".into()]).unwrap()
    }

    #[test]
    fn roundtrip_through_memory() {
        let ds = sample();
        let mut buf = Vec::new();
        write_dataset_to(&ds, &mut buf).unwrap();
        let back = read_dataset_from(&buf[..]).unwrap();
        assert_eq!(back.n(), 2);
        assert_eq!(back.d(), 2);
        assert_eq!(back.y(), ds.y());
        assert_eq!(back.x().as_slice(), ds.x().as_slice());
        assert_eq!(back.feature_names(), ds.feature_names());
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("fm_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        let ds = sample();
        write_dataset(&ds, &path).unwrap();
        let back = read_dataset(&path).unwrap();
        assert_eq!(back.y(), ds.y());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_is_emitted() {
        let mut buf = Vec::new();
        write_dataset_to(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("a,b,label\n"));
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert!(read_dataset_from(&b""[..]).is_err());
        assert!(read_dataset_from(&b"only_label\n1.0\n"[..]).is_err());
        let ragged = b"a,b,label\n1.0,2.0\n";
        assert!(matches!(
            read_dataset_from(&ragged[..]),
            Err(DataError::Parse { line: 2, .. })
        ));
        let non_numeric = b"a,b,label\n1.0,x,2.0\n";
        assert!(read_dataset_from(&non_numeric[..]).is_err());
        let header_only = b"a,b,label\n";
        assert!(matches!(
            read_dataset_from(&header_only[..]),
            Err(DataError::EmptyDataset)
        ));
    }

    #[test]
    fn blank_lines_skipped() {
        let csv = b"a,label\n1.0,2.0\n\n3.0,4.0\n";
        let ds = read_dataset_from(&csv[..]).unwrap();
        assert_eq!(ds.n(), 2);
    }
}
