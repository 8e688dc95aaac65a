//! Error generators for image attributes: additive noise and rotation.

use crate::{CellWise, Hits};
use lvp_dataframe::{DataFrame, ImageData, Schema};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Adds zero-mean Gaussian noise to a proportion of the input images, with
/// a randomly chosen noise standard deviation (§6 "Image noise").
#[derive(Debug, Clone)]
pub struct ImageNoise(Vec<usize>);

impl ImageNoise {
    /// Targets all image columns of the schema.
    pub fn all_images(schema: &Schema) -> Self {
        Self(schema.image_columns())
    }
}

impl CellWise for ImageNoise {
    const NAME: &'static str = "image_noise";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        // The paper samples the noise variance from [-0.5, 0.5]; a
        // variance cannot be negative, so we read this as |v| ≤ 0.5.
        let std = rng.gen_range(0.01..0.5f64).sqrt();
        let noise = Normal::new(0.0, std).expect("finite parameters");
        let images = out.column_mut(col).as_image_mut().expect("image candidate");
        hits.each(images.len(), rng, |row, rng| {
            if let Some(img) = &mut images[row] {
                for px in &mut img.pixels {
                    *px = (*px + noise.sample(rng)).clamp(0.0, 1.0);
                }
            }
        });
    }
}

/// Rotates a proportion of the input images by randomly chosen angles
/// (§6 "Image rotation").
#[derive(Debug, Clone)]
pub struct ImageRotation(Vec<usize>);

impl ImageRotation {
    /// Targets all image columns of the schema.
    pub fn all_images(schema: &Schema) -> Self {
        Self(schema.image_columns())
    }
}

/// Rotates an image by `angle` radians around its center using inverse
/// nearest-neighbour mapping; pixels rotated in from outside are black.
pub fn rotate_image(img: &ImageData, angle: f64) -> ImageData {
    let mut out = ImageData::zeros(img.width, img.height);
    let (cx, cy) = (img.width as f64 / 2.0, img.height as f64 / 2.0);
    let (sin, cos) = angle.sin_cos();
    for y in 0..img.height {
        for x in 0..img.width {
            // Inverse rotation: where did this output pixel come from?
            let dx = x as f64 + 0.5 - cx;
            let dy = y as f64 + 0.5 - cy;
            let sx = cx + cos * dx + sin * dy;
            let sy = cy - sin * dx + cos * dy;
            let (sx, sy) = (sx.floor(), sy.floor());
            if sx >= 0.0 && sy >= 0.0 {
                let (sx, sy) = (sx as usize, sy as usize);
                if sx < img.width && sy < img.height {
                    out.set(x, y, img.get(sx, sy));
                }
            }
        }
    }
    out
}

impl CellWise for ImageRotation {
    const NAME: &'static str = "image_rotation";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let images = out.column_mut(col).as_image_mut().expect("image candidate");
        hits.each(images.len(), rng, |row, rng| {
            if let Some(img) = &mut images[row] {
                let angle = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
                *img = rotate_image(img, angle);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorGen;
    use lvp_dataframe::{CellValue, ColumnType, DataFrameBuilder, Field, Schema};
    use rand::SeedableRng;

    fn image_frame(n: usize) -> DataFrame {
        let schema = Schema::new(vec![Field::new("img", ColumnType::Image)]).unwrap();
        let mut b = DataFrameBuilder::new(schema, vec!["a".into(), "b".into()]);
        for i in 0..n {
            let mut img = ImageData::zeros(8, 8);
            img.set(2, 2, 1.0);
            img.set(5, 5, 0.5);
            b.push_row(vec![CellValue::Image(img)], (i % 2) as u32)
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn noise_keeps_pixels_in_unit_range() {
        let df = image_frame(50);
        let gen = ImageNoise::all_images(df.schema());
        let mut rng = StdRng::seed_from_u64(1);
        let out = gen.corrupt(&df, &mut rng);
        for img in out.column(0).as_image().unwrap().iter().flatten() {
            assert!(img.pixels.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn noise_changes_some_pixels() {
        let df = image_frame(50);
        let gen = ImageNoise::all_images(df.schema());
        let mut rng = StdRng::seed_from_u64(2);
        let out = gen.corrupt(&df, &mut rng);
        let orig = df.column(0).as_image().unwrap();
        let new = out.column(0).as_image().unwrap();
        let changed = orig.iter().zip(new).filter(|(a, b)| a != b).count();
        assert!(changed > 0);
    }

    #[test]
    fn rotation_by_zero_is_identity() {
        let img = {
            let mut i = ImageData::zeros(6, 6);
            i.set(1, 2, 0.7);
            i.set(4, 4, 0.3);
            i
        };
        let rotated = rotate_image(&img, 0.0);
        assert_eq!(rotated, img);
    }

    #[test]
    fn rotation_preserves_total_mass_approximately() {
        let mut img = ImageData::zeros(16, 16);
        // A centered blob survives rotation almost fully.
        for y in 6..10 {
            for x in 6..10 {
                img.set(x, y, 1.0);
            }
        }
        let rotated = rotate_image(&img, std::f64::consts::FRAC_PI_4);
        let mass: f64 = rotated.pixels.iter().sum();
        assert!((mass - 16.0).abs() < 6.0, "mass {mass}");
    }

    #[test]
    fn rotation_moves_off_center_pixels() {
        let mut img = ImageData::zeros(8, 8);
        img.set(1, 1, 1.0);
        let rotated = rotate_image(&img, std::f64::consts::PI);
        assert_eq!(rotated.get(1, 1), 0.0);
    }

    #[test]
    fn rotation_generator_keeps_geometry() {
        let df = image_frame(30);
        let gen = ImageRotation::all_images(df.schema());
        let mut rng = StdRng::seed_from_u64(3);
        let out = gen.corrupt(&df, &mut rng);
        for img in out.column(0).as_image().unwrap().iter().flatten() {
            assert_eq!(img.width, 8);
            assert_eq!(img.height, 8);
        }
    }
}
