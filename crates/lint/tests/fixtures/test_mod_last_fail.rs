//! A test module declared mid-file: size counts would file `after_tests`
//! as test code.

pub fn helper() -> u32 {
    1
}

#[cfg(test)]
mod tests;

pub fn after_tests() -> u32 {
    helper() + 1
}
