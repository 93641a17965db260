// tfd::linalg — wire (de)serialization of the numeric carriers.
//
// Checkpoint/restore moves fitted models across a process boundary with
// a bit-identical-resume contract, so every double travels as its raw
// IEEE-754 bits (io::wire f64), never through text formatting. These
// helpers serialize the linalg value types the detector state is built
// from: dense matrices, double vectors, and a full pca_result
// (eigenvalues, components, spectrum moments).
//
// Layouts (all little-endian, varint = LEB128):
//
//   vector  : varint n | n x f64
//   matrix  : varint rows | varint cols | rows*cols x f64 (row-major)
//   pca     : vector mean | vector eigenvalues | matrix components
//             f64 total_variance | 3 x f64 spectrum_moments
//             u8 1 (the partial-spectrum flag; every fit is partial
//             now, so load rejects any other value)
#pragma once

#include <span>
#include <vector>

#include "io/wire.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"

namespace tfd::linalg {

/// Append `v` (length-prefixed, bit-exact doubles).
void save(io::wire_writer& w, std::span<const double> v);

/// Read a length-prefixed double vector (contents replaced). Throws
/// io::wire_error on truncation.
void load(io::wire_reader& r, std::vector<double>& v);

/// Append `m` (shape-prefixed, row-major, bit-exact doubles).
void save(io::wire_writer& w, const matrix& m);

/// Read a shape-prefixed matrix (contents replaced). Throws
/// io::wire_error on truncation.
void load(io::wire_reader& r, matrix& m);

/// Append a fitted PCA model (spectrum, axes, moments).
void save(io::wire_writer& w, const pca_result& p);

/// Read a fitted PCA model (contents replaced). Throws io::wire_error
/// on truncation or a flag byte other than 1.
void load(io::wire_reader& r, pca_result& p);

}  // namespace tfd::linalg
